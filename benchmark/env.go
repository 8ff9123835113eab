package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/lanes"
)

// envHeader is recorded in every result so two result files can be read
// side by side knowing what machine and build each came from.
type envHeader struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
	GitCommit      string  `json:"git_commit"`
	Backend        string  `json:"backend"`
	LaneWorkers    int     `json:"lane_workers"`
	MemAvailableMB float64 `json:"mem_available_mb"`
	Seed           uint64  `json:"seed"`
}

func readEnv(seed uint64) envHeader {
	return envHeader{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		GitCommit:      gitCommit(),
		Backend:        lanes.DefaultBackend().Name(),
		LaneWorkers:    lanes.Default().Workers(),
		MemAvailableMB: float64(memAvailableKB()) / 1024,
		Seed:           seed,
	}
}

// procField returns the value of the first "key: value" line of a /proc
// text file whose key matches, or "".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// procKB parses a "<n> kB" /proc value; 0 when absent (non-Linux).
func procKB(path, key string) int64 {
	v := strings.TrimSuffix(procField(path, key), " kB")
	n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64) // absent field reads as 0
	return n
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

func memAvailableKB() int64 { return procKB("/proc/meminfo", "MemAvailable") }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return float64(procKB("/proc/self/status", "VmHWM")) / 1024 }

// gitCommit asks git for HEAD; a checkout that is not a repository (or a
// box without git) reports "unknown" rather than failing the run.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
