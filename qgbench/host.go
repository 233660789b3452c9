package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo describes the machine a result was measured on.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	// TriadGBps is the best STREAM-triad bandwidth over TriadReps
	// repetitions, counting three arrays of TriadArrayBytes per pass.
	TriadGBps       float64 `json:"triad_gbps"`
	TriadArrayBytes int64   `json:"triad_array_bytes"`
	TriadReps       int     `json:"triad_reps"`
	Seed            uint64  `json:"seed"`
	Workload        string  `json:"workload"`
}

// triadFlag makes the binary run only the bandwidth probe: the probe's
// arrays live in a child process so they stay out of the benchmark's
// peak RSS.
const triadFlag = "--triad-probe"

func describeHost(cfg config) (hostInfo, error) {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Workload:   cfg.workload,
	}
	h.L2Bytes, h.LLCBytes = cacheSizes()
	arrayBytes := triadArrayBytes(h.LLCBytes, cfg.smoke)
	self, err := os.Executable()
	if err != nil {
		return h, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	out, err := exec.Command(self, triadFlag, strconv.FormatInt(arrayBytes, 10)).Output()
	if err != nil {
		return h, fmt.Errorf("running the triad probe: %w", err)
	}
	var res triadResult
	if err := json.Unmarshal(out, &res); err != nil {
		return h, fmt.Errorf("decoding the triad probe: %w", err)
	}
	h.TriadGBps, h.TriadArrayBytes, h.TriadReps = res.GBps, arrayBytes, res.Reps
	return h, nil
}

// triadArrayBytes sizes one triad array so the three together are at
// least four times the last-level cache, capped at an eighth of the
// available memory.
func triadArrayBytes(llc int64, smoke bool) int64 {
	if smoke {
		return 8 << 20
	}
	want := (4*llc + 2) / 3
	if want < 64<<20 {
		want = 64 << 20
	}
	if avail := memAvailable(); avail > 0 && want > avail/8 {
		want = avail / 8
	}
	return want &^ 4095
}

type triadResult struct {
	GBps float64 `json:"gbps"`
	Reps int     `json:"reps"`
}

// triadChild runs a[i] = b[i] + s*c[i] over three arrays with one
// goroutine per CPU and prints the best bandwidth as JSON.
func triadChild(args []string) int {
	if len(args) < 1 {
		return 2
	}
	bytes, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || bytes < 8 {
		return 2
	}
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.NumCPU()
	chunk := (n + workers - 1) / workers
	par := func(fn func(lo, hi int)) {
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	par(func(lo, hi int) { // first touch, spread like the timed passes
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	const reps = 6
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		s := float64(r) + 0.5
		t0 := time.Now()
		par(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + s*c[i]
			}
		})
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if a[n-1] != 1+5.5*2 {
		return 1
	}
	fmt.Println(mustJSON(triadResult{GBps: float64(3*bytes) / best.Seconds() / 1e9, Reps: reps}))
	return 0
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

// commit is the VCS revision the binary was built from, or "unknown"
// when it was built outside a repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's L2 and last-level cache sizes from sysfs.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		lv, _ := strconv.Atoi(strings.TrimSpace(string(level)))
		sz := parseSize(strings.TrimSpace(string(size)))
		if lv == 2 {
			l2 = sz
		}
		if lv >= best {
			best, llc = lv, sz
		}
	}
	return l2, llc
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v * mult
}

// procStatusKB reads one kB field of /proc/self/status or /proc/meminfo.
func procKB(path, field string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

func memAvailable() int64 { return procKB("/proc/meminfo", "MemAvailable") << 10 }

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 { return float64(procKB("/proc/self/status", "VmHWM")) / 1024 }
