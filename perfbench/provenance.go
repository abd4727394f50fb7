package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/service"
)

// provenance identifies what produced a report. Machine is the fingerprint
// two reports must share before their numbers can be compared.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from; a checkout
	// without VCS metadata leaves it empty and SourceSHA identifies the code.
	Commit    string `json:"commit"`
	SourceSHA string `json:"source_sha256"`
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
}

func readProvenance(o options) provenance {
	p := provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     service.BuildInfo().Revision,
		SourceSHA:  sourceHash("."),
		Workload:   o.workload,
		Seed:       o.seed,
		Traced:     o.trace,
	}
	if p.Commit == "" {
		p.Commit = "unknown"
	}
	return p
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // a struct of strings and ints always marshals
	return string(b)
}

func (p provenance) machine() string {
	return fmt.Sprintf("%s | nproc=%d | GOMAXPROCS=%d | %s", p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion)
}

// checkPrevious compares this run's machine fingerprint with the one the
// previous run in dir recorded, records this run's, and returns a warning
// line when the two differ: their numbers are not comparable.
func (p provenance) checkPrevious(dir string) string {
	path := filepath.Join(dir, "provenance.json")
	var warn string
	if data, err := os.ReadFile(path); err == nil {
		var prev provenance
		if json.Unmarshal(data, &prev) == nil && prev.machine() != p.machine() {
			warn = fmt.Sprintf("WARNING: machine fingerprint differs from the previous run in %s (%s vs %s); do not compare their numbers",
				dir, prev.machine(), p.machine())
		}
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		// Best effort: a missing record only disables the next comparison.
		_ = os.WriteFile(path, []byte(p.String()), 0o644)
	}
	return warn
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every Go source and go.mod file under root (skipping
// hidden and build directories), so reports from checkouts without VCS
// metadata still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
