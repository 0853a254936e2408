// Command perfbench is streamdb's end-to-end benchmark. It drives only
// the entry points a user reaches — streamdb.Engine (RegisterSchema,
// SetSource, Compile, QueryInto) over seeded inputs, and for the live
// workload the dsms session transport bound through Engine.SetSource —
// and checks every output against the serial engine as an oracle.
//
//	perfbench --workload filter --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// taken from a CPU profile of the benchmark process and from runtime
// and transport counters. The line before it holds the host, the
// workload's input parameters and every counter read during the run.
// The command exits 1 when any output differs from the oracle's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured. end holds the end-to-end
// metrics, layer the per-layer ones; both are always fully populated
// so the printed set does not depend on the workload.
type outcome struct {
	attempted, failed int64
	params            map[string]any
	end               map[string]float64
	layer             map[string]float64
}

// Units of every metric the benchmark reports, by name.
var endUnits = map[string]string{
	"throughput_tps":   "1/s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"cpu_us_per_tuple": "us",
	"peak_heap_mb":     "MB",
	"setup_s":          "s",
	"success_rate":     "ratio",
}

var layerUnits = map[string]string{
	"rt.allocs_per_tuple":       "count",
	"rt.alloc_bytes_per_tuple":  "B",
	"rt.gc_cycles":              "count",
	"rt.gc_cpu_share":           "ratio",
	"rt.sched_wait_p99_us":      "us",
	"rt.mutex_wait_ms":          "ms",
	"rt.heap_base_mb":           "MB",
	"dsms.wire_bytes_per_tuple": "B",
	"dsms.unacked_max":          "count",
	"dsms.resent":               "count",
	"dsms.dupes":                "count",
	"dsms.corrupt":              "count",
	"span.compile_ms":           "ms",
	"span.send_us":              "us",
	"span.sink_us":              "us",
	"gen.lag_p99_ms":            "ms",
	"serial.throughput_tps":     "1/s",
	"trace.overhead":            "ratio",
	"trace.samples":             "count",
	"latency.samples":           "count",
	"cpu.memsize":               "ratio",
	"cpu.transpose":             "ratio",
}

func init() {
	for _, b := range cpuBuckets {
		layerUnits[b] = "ratio"
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: filter, pane_agg, rtt_join or wire_live")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed region runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var (
		out *outcome
		err error
	)
	switch *name {
	case "filter", "pane_agg", "rtt_join":
		out, err = runReplay(replayWorkloads[*name], *seed, *seconds, *trace == 1)
	case "wire_live":
		out, err = runWire(*seed, *seconds, *trace == 1)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.end["success_rate"] = 1 - float64(out.failed)/float64(out.attempted)

	detail := map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"workload": *name,
		"seed":     *seed,
		"trace":    *trace,
		"params":   out.params,
		"end":      out.end,
		"layer":    out.layer,
	}
	line, _ := json.Marshal(detail)
	fmt.Println(string(line))

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	units, vals := endUnits, out.end
	if *trace == 1 {
		units, vals = layerUnits, out.layer
	}
	for k, u := range units {
		v, ok := vals[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", k)
			os.Exit(1)
		}
		res.Metrics[k] = metric{Value: v, Unit: u}
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// median returns the middle of xs (mean of the two middles for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
