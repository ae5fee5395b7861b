// Command perfbench is the repository's benchmark: seeded workloads driven
// through the public entry points core.Run, engine.NewDynamic +
// engine.Handler (over loopback HTTP) and seq.Dijkstra, with every op
// checked against the oracle outside its timing. See README.md.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --compare <record-a.json> <record-b.json>
//
// A run prints every metric it measured with its unit, one line per failed
// op with its cause, and, last, one JSON object with the benchmark
// contract's keys. It writes its result record (with the host fingerprint)
// and, when traced, its spans under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const outDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed     = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "measured run length in seconds")
		traced   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		compare  = fs.Bool("compare", false, "compare two result records given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args())
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traced == 1}
	host, err := hostFingerprint(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep := &report{Host: host, Workload: *workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	if w, ok := batchWorkloads[*workload]; ok {
		err = runBatch(w, o, rep, spans)
	} else if *workload == "serve-zipf" {
		err = runServe(o, rep, spans)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := rep.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	stem := fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, *traced)
	record := filepath.Join(outDir, "records", stem+".json")
	if err := writeJSONFile(record, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the record:", err)
		return 1
	}
	if o.trace {
		path := filepath.Join(outDir, "spans", stem+".json")
		if err := writeJSONFile(path, map[string]any{"workload": rep.Workload, "seed": rep.Seed, "spans": spans.all()}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing the spans:", err)
			return 1
		}
	}

	rep.print(os.Stdout)
	fmt.Printf("# record %s\n", record)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	names := []string{"serve-zipf"}
	for n := range batchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runCompare(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --compare takes two record files")
		return 2
	}
	a, err := readRecord(paths[0])
	if err == nil {
		var b *report
		if b, err = readRecord(paths[1]); err == nil {
			err = compareRecords(os.Stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errHostMismatch) {
			return 3
		}
		return 1
	}
	return 0
}
