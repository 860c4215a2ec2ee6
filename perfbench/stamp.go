package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a result was measured on. perfbench/runs.py refuses
// to compare results whose environment fields differ; revision and source
// digest name the code measured and are expected to differ between sides.
type stamp struct {
	Revision     string         `json:"revision"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	GOOS         string         `json:"goos"`
	GOARCH       string         `json:"goarch"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	Workload     string         `json:"workload"`
	Params       map[string]any `json:"params"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	Heights      int            `json:"heights"` // timed heights: the latency sample count
}

func newStamp(o options, sp *spec, heights int) *stamp {
	return &stamp{
		Revision:     revision(),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Workload:     sp.name,
		Params:       sp.params,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Heights:      heights,
	}
}

// revision is the git commit of the working directory, or "unknown" outside
// a git checkout (the source digest still identifies the code).
func revision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (build outputs, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
