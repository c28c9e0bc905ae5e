// Command refbench is the reference benchmark of the served oracle. It
// generates a fixed LiveJournal-profile graph, builds the oracle and
// serves it through the real stack (core → wire → qserver over
// loopback → qclient, with store catalogs for a writer and a replica),
// then runs one workload, checks every answer against its own
// references and prints the metrics as one JSON line.
//
//	refbench --workload point|rank|churn --seed N --seconds S --trace 0|1
//	refbench --repeat R --workload W --seconds S [--trace 0|1]
//
// With --trace 1 it prints the per-layer metrics instead; with
// --repeat it runs the workload R times on seeds 1..R in child
// processes and prints each metric's median and spread. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "", "point, rank or churn")
	seed := flag.Uint64("seed", 1, "seed of the request and update streams")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	repeat := flag.Int("repeat", 0, "run the workload this many times on seeds 1..N and print medians and spreads")
	flag.Parse()
	switch *workload {
	case "point", "rank", "churn":
	default:
		fmt.Fprintf(os.Stderr, "refbench: unknown workload %q (want point, rank or churn)\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "refbench:", err)
			os.Exit(1)
		}
		return
	}
	r := newRun()
	start := time.Now()

	if err := execute(context.Background(), *workload, *seed, *seconds, *trace == 1, r); err != nil {
		fmt.Fprintln(os.Stderr, "refbench:", err)
		os.Exit(1)
	}
	summarize(r, time.Since(start))
	counts, _ := json.Marshal(r.counts)
	fmt.Printf("counts %s\n", counts)
	line, _ := json.Marshal(r.report())
	fmt.Println(string(line))
}

// execute sets up the stack and runs one workload or the traced sweep.
func execute(ctx context.Context, workload string, seed uint64, seconds float64, traced bool, r *run) error {
	if traced {
		return traceRun(ctx, workload, seed, seconds, r)
	}
	st, times, err := setupMany(ctx, workload == "churn")
	if err != nil {
		return err
	}
	defer st.close()
	r.set("setup_s", "s", secs(quantile(times.total, 0.5)))
	ref := newRefGraph(st.g.NumNodes(), edgeList(st.g))
	runWorkload(ctx, workload, st, ref, seed, seconds, r)
	r.count("oracle_mb", "MB", float64(st.oracle().Memory().TotalBytes)/(1<<20))
	// Not gated: under churn some update streams leave two arenas
	// reachable and the live heap doubles (see README.md).
	r.note("heap_mb %.1f MB (live heap after a forced GC)", heapMB())
	return nil
}

func runWorkload(ctx context.Context, workload string, st *stack, ref *refGraph, seed uint64, seconds float64, r *run) {
	switch workload {
	case "point":
		runPoint(ctx, st, ref, seed, seconds, r)
	case "rank":
		runRank(ctx, st, ref, seed, seconds, r)
	case "churn":
		runChurn(ctx, st, ref, seed, seconds, r)
	}
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// summarize prints the per-operation tallies and any failed checks to
// standard error.
func summarize(r *run, took time.Duration) {
	for _, o := range r.ops {
		fmt.Fprintf(os.Stderr, "op %-18s attempted=%d failed=%d samples=%d", o.name, o.attempted, o.failed, len(o.samples))
		if len(o.samples) > 0 {
			fmt.Fprintf(os.Stderr, " p50=%v p99=%v", o.quantile(0.5), o.quantile(0.99))
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, k := range sortedKeys(r.metrics) {
		fmt.Fprintf(os.Stderr, "metric %-32s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", e)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "run took %v; %d GC cycles, %v paused\n", took.Round(time.Millisecond), ms.NumGC, time.Duration(ms.PauseTotalNs))
}
