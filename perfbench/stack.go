package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/store"
)

// stack is one running copy of the real service: an on-disk store, the
// scheduler over it, the campaign manager, and the HTTP front end served on
// a loopback port.
type stack struct {
	dir   string
	store *store.Store
	sched *service.Scheduler
	srv   *http.Server
	base  string // http://127.0.0.1:port
	done  chan error
}

// startStack opens a fresh store under dir and serves the full handler
// (built-in routes plus the campaign routes) on a loopback listener.
func startStack(dir string, workers int) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("clear store dir: %w", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	sched := service.NewWithOptions(st, service.Options{Workers: workers})
	mgr := campaign.NewManager(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{
		dir:   dir,
		store: st,
		sched: sched,
		srv:   &http.Server{Handler: service.NewHandler(sched, mgr.Routes()...)},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the scheduler down, waits for both, and
// deletes the store directory.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.sched.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
