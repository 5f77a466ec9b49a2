package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Seeds: defaultSeed is the workload seed claims are developed on;
// heldOutSeed is kept for confirming a claim on inputs it was not
// tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// nproc is the client concurrency bound: no client uses more
// goroutines or connections than the CPUs this process may run on.
func nproc() int { return runtime.NumCPU() }

// meta describes the run so reports from different machines or trees
// are never compared by accident.
type meta struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Seed         uint64 `json:"seed"`
	DefaultSeed  uint64 `json:"default_seed"`
	HeldOutSeed  uint64 `json:"held_out_seed"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func readMeta(seed uint64) (meta, error) {
	m := meta{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       nproc(),
		CPUModel:    cpuModel(),
		Seed:        seed,
		DefaultSeed: defaultSeed,
		HeldOutSeed: heldOutSeed,
		Commit:      gitCommit("."),
	}
	sum, err := sourceDigest(".")
	if err != nil {
		return meta{}, err
	}
	m.SourceSHA256 = sum
	return m, nil
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build output), so a checkout without git
// metadata still names the code it measured.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(f + "\x00"))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit reads the checked-out commit from root's .git directory
// without running git; "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
