// Command qgear-serve runs the Q-GEAR simulation service: an HTTP JSON
// API over the internal/service layer (bounded job queue, worker pool,
// batch coalescing onto the mqpu device-parallel path, and a
// content-addressed LRU result cache).
//
// Usage:
//
//	qgear-serve serve -addr :8042 -target nvidia-mqpu -devices 4 -pool 2 -cache 1024
//	qgear-serve warmstart -phase seed -store-dir /path/to/store
//
// Load generation lives in `qgear-bench load`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qgear/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "warmstart":
		err = cmdWarmstart(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "qgear-serve: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgear-serve: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `qgear-serve <command> [flags]
commands:
  serve      run the simulation HTTP service (/v1/jobs, /v1/results, /v1/stats)
  warmstart  warm-restart acceptance check for the -store-dir persistence path
run "qgear-serve <command> -h" for flags`)
}

// serviceFlags registers the shared server-configuration flags.
func serviceFlags(fs *flag.FlagSet) *service.Config {
	cfg := &service.Config{}
	fs.StringVar((*string)(&cfg.Target), "target", "", "execution target (default nvidia; nvidia-mqpu when -devices > 1)")
	fs.IntVar(&cfg.Devices, "devices", 1, "simulated device count")
	fs.IntVar(&cfg.Workers, "workers", 0, "goroutine parallelism per device (0 = NumCPU)")
	fs.IntVar(&cfg.FusionWindow, "fusion", 0, "gate-fusion window (0 = off)")
	fs.Float64Var(&cfg.PruneAngle, "prune", 0, "small-angle prune threshold")
	fs.IntVar(&cfg.TileBits, "tile", 0, "tiled-executor tile width in qubits (0 = auto from cache geometry, negative = per-gate sweeps)")
	fs.BoolVar(&cfg.PlanFusion, "plan-fusion", false, "pre-multiply adjacent same-target 1q gates in the plan compiler")
	fs.IntVar(&cfg.QueueSize, "queue", 256, "job queue bound")
	fs.IntVar(&cfg.WorkerPool, "pool", 2, "executor worker pool size")
	fs.IntVar(&cfg.CacheSize, "cache", 1024, "result-cache entry bound (-1 disables)")
	fs.Int64Var(&cfg.MaxCacheBytes, "max-cache-bytes", 0, "result-cache resident byte budget (0 = 1 GiB default, -1 = unbounded)")
	fs.IntVar(&cfg.PlanCacheSize, "plan-cache", 512, "compiled-plan cache entry bound (-1 disables)")
	fs.Int64Var(&cfg.MaxPlanCacheBytes, "max-plan-cache-bytes", 0, "plan-cache resident byte budget (0 = 256 MiB default, -1 = unbounded)")
	fs.StringVar(&cfg.StoreDir, "store-dir", "", "persistent artifact store directory: evicted/shutdown cache entries spill there and a restarted server answers repeat fingerprints from disk (empty = no persistence)")
	fs.Int64Var(&cfg.MaxStoreBytes, "max-store-bytes", 0, "on-disk store byte budget: saves evict lowest-priority artifacts (Greedy-Dual-Size) or are refused so the store directory never outgrows this (0 = unbounded)")
	fs.IntVar(&cfg.MaxBatch, "batch", 8, "max jobs coalesced into one run")
	fs.DurationVar(&cfg.BatchWindow, "window", 2*time.Millisecond, "batch coalescing wait window")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 0, "per-job lifetime bound from submission (0 = unbounded); expired jobs fail with a 504 result")
	fs.IntVar(&cfg.MaxWaitMs, "max-wait-ms", 0, "long-poll cap for GET /v1/jobs/{id}?wait_ms=N in milliseconds (0 = 30000 default); larger client budgets are clamped, never rejected")
	fs.Int64Var(&cfg.MaxStateBytes, "max-state-bytes", 0, "memory admission budget: reject circuits whose simulation working set exceeds this many bytes with 422 (0 = half of available RAM, -1 = no admission control)")
	return cfg
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := serviceFlags(fs)
	addr := fs.String("addr", ":8042", "listen address")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints expose internals)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := service.New(*cfg)
	if err != nil {
		return err
	}
	var handler http.Handler = srv.Handler()
	if *enablePprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	// SIGTERM is what orchestrators (Kubernetes, systemd) send first;
	// both it and Ctrl-C get the same graceful drain.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ecfg := srv.Config()
	fmt.Printf("qgear-serve: listening on %s (target=%s devices=%d pool=%d queue=%d cache=%d batch=%d)\n",
		*addr, ecfg.Target, ecfg.Devices, ecfg.WorkerPool, ecfg.QueueSize, ecfg.CacheSize, ecfg.MaxBatch)
	select {
	case err := <-done:
		srv.Close()
		return err
	case <-sig:
		fmt.Println("qgear-serve: draining in-flight jobs...")
		// Shutdown (not Close) lets in-flight HTTP requests finish;
		// the timeout bounds clients that never stop reading.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "qgear-serve: http shutdown: %v\n", err)
		}
		return srv.Close()
	}
}
