package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the host a record was measured on and the tree it
// measured. Timings compare only between records with equal host fields.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// TreeHash is a SHA-256 over the measured sources: every .go file,
	// go.mod and go.sum under the root, and BENCHMARK.json.
	TreeHash string `json:"tree_hash"`
	// Commit and Dirty come from git when the root is a git work tree;
	// Dirty is null otherwise.
	Commit string `json:"commit,omitempty"`
	Dirty  *bool  `json:"dirty"`
}

func (f fingerprint) hostKey() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH)
}

func (f fingerprint) treeKey() string {
	dirty := "unknown"
	if f.Dirty != nil {
		dirty = fmt.Sprint(*f.Dirty)
	}
	return fmt.Sprintf("%.16s commit=%.12s dirty=%s", f.TreeHash, f.Commit, dirty)
}

// hostFingerprint fingerprints this host and the tree rooted at root.
func hostFingerprint(root string) (fingerprint, error) {
	f := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		GOOS:       goruntime.GOOS,
		GOARCH:     goruntime.GOARCH,
	}
	h, err := treeHash(root)
	if err != nil {
		return f, fmt.Errorf("hashing the tree: %w", err)
	}
	f.TreeHash = h
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := git(root, "rev-parse", "HEAD"); err == nil {
			f.Commit = strings.TrimSpace(out)
		}
		if out, err := git(root, "status", "--porcelain"); err == nil {
			dirty := strings.TrimSpace(out) != ""
			f.Dirty = &dirty
		}
	}
	return f, nil
}

func git(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash hashes the sources that determine the measured program, in
// path order, skipping .git and the build directory.
func treeHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == ".git" || name == ".bench_build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" && name != "BENCHMARK.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		_, err = io.Copy(h, bytes.NewReader(b))
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
