package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuBuckets are the self-CPU shares the traced run reports, one per
// repository module plus the runtime's own work. Every profile sample
// lands in exactly one of them, so they sum to 1.
var cpuBuckets = []string{
	"cpu.exec", "cpu.stream", "cpu.tuple", "cpu.expr", "cpu.ops", "cpu.agg",
	"cpu.window", "cpu.dsms", "cpu.query", "cpu.share",
	"cpu.runtime.gc", "cpu.runtime.malloc", "cpu.runtime.sched", "cpu.syscall",
	"cpu.harness", "cpu.other",
}

// modulePrefix maps a function-name prefix to its module bucket. The
// root streamdb package (the Engine front door) counts with query.
var modulePrefix = []struct{ prefix, bucket string }{
	{"streamdb/internal/exec.", "cpu.exec"},
	{"streamdb/internal/stream.", "cpu.stream"},
	{"streamdb/internal/tuple.", "cpu.tuple"},
	{"streamdb/internal/expr.", "cpu.expr"},
	{"streamdb/internal/ops.", "cpu.ops"},
	{"streamdb/internal/agg.", "cpu.agg"},
	{"streamdb/internal/window.", "cpu.window"},
	{"streamdb/internal/dsms.", "cpu.dsms"},
	{"streamdb/internal/query.", "cpu.query"},
	{"streamdb/internal/optimizer/share.", "cpu.share"},
	{"streamdb.", "cpu.query"},
	{"streamdb/", "cpu.other"},
	{"main.", "cpu.harness"},
	{"runtime/pprof.", "cpu.harness"},
	{"syscall.", "cpu.syscall"},
	{"internal/runtime/syscall.", "cpu.syscall"},
	{"runtime/internal/syscall.", "cpu.syscall"},
	{"sync.(*Mutex)", "cpu.runtime.sched"},
	{"sync.(*RWMutex)", "cpu.runtime.sched"},
	{"sync.(*Cond)", "cpu.runtime.sched"},
	{"sync.(*WaitGroup)", "cpu.runtime.sched"},
	{"internal/sync.", "cpu.runtime.sched"},
}

// runtimeClass buckets runtime frames that are the runtime's own work
// rather than a helper called on a module's behalf (memmove, map
// access, hashing), which is charged to the nearest module caller.
var runtimeClass = []struct{ prefix, bucket string }{
	{"runtime.gc", "cpu.runtime.gc"},
	{"runtime.scan", "cpu.runtime.gc"},
	{"runtime.mark", "cpu.runtime.gc"},
	{"runtime.greyobject", "cpu.runtime.gc"},
	{"runtime.findObject", "cpu.runtime.gc"},
	{"runtime.wbBuf", "cpu.runtime.gc"},
	{"runtime.bulkBarrier", "cpu.runtime.gc"},
	{"runtime.bgsweep", "cpu.runtime.gc"},
	{"runtime.bgscavenge", "cpu.runtime.gc"},
	{"runtime.sweepone", "cpu.runtime.gc"},
	{"runtime.(*sweepLocked)", "cpu.runtime.gc"},
	{"runtime.(*mspan).sweep", "cpu.runtime.gc"},
	{"runtime.(*gcWork)", "cpu.runtime.gc"},
	{"runtime.(*gcBits)", "cpu.runtime.gc"},
	{"runtime.(*gcControllerState)", "cpu.runtime.gc"},
	{"runtime.typePointers", "cpu.runtime.gc"},
	{"runtime.(*mspan).typePointers", "cpu.runtime.gc"},
	{"runtime.(*unwinder)", "cpu.runtime.gc"},
	{"runtime.mallocgc", "cpu.runtime.malloc"},
	{"runtime.newobject", "cpu.runtime.malloc"},
	{"runtime.newarray", "cpu.runtime.malloc"},
	{"runtime.makeslice", "cpu.runtime.malloc"},
	{"runtime.growslice", "cpu.runtime.malloc"},
	{"runtime.makemap", "cpu.runtime.malloc"},
	{"runtime.rawstring", "cpu.runtime.malloc"},
	{"runtime.(*mcache)", "cpu.runtime.malloc"},
	{"runtime.(*mcentral)", "cpu.runtime.malloc"},
	{"runtime.(*mheap)", "cpu.runtime.malloc"},
	{"runtime.nextFreeFast", "cpu.runtime.malloc"},
	{"runtime.heapSetType", "cpu.runtime.malloc"},
	{"runtime.entersyscall", "cpu.syscall"},
	{"runtime.exitsyscall", "cpu.syscall"},
	{"runtime.schedule", "cpu.runtime.sched"},
	{"runtime.findRunnable", "cpu.runtime.sched"},
	{"runtime.park_m", "cpu.runtime.sched"},
	{"runtime.gopark", "cpu.runtime.sched"},
	{"runtime.goready", "cpu.runtime.sched"},
	{"runtime.ready", "cpu.runtime.sched"},
	{"runtime.mcall", "cpu.runtime.sched"},
	{"runtime.stealWork", "cpu.runtime.sched"},
	{"runtime.runq", "cpu.runtime.sched"},
	{"runtime.netpoll", "cpu.runtime.sched"},
	{"runtime.note", "cpu.runtime.sched"},
	{"runtime.futex", "cpu.runtime.sched"},
	{"runtime.usleep", "cpu.runtime.sched"},
	{"runtime.osyield", "cpu.runtime.sched"},
	{"runtime.procyield", "cpu.runtime.sched"},
	{"runtime.lock", "cpu.runtime.sched"},
	{"runtime.unlock", "cpu.runtime.sched"},
	{"runtime.chansend", "cpu.runtime.sched"},
	{"runtime.chanrecv", "cpu.runtime.sched"},
	{"runtime.selectgo", "cpu.runtime.sched"},
	{"runtime.sema", "cpu.runtime.sched"},
	{"runtime.wakep", "cpu.runtime.sched"},
	{"runtime.startm", "cpu.runtime.sched"},
	{"runtime.stopm", "cpu.runtime.sched"},
	{"runtime.mPark", "cpu.runtime.sched"},
	{"runtime.gosched", "cpu.runtime.sched"},
	{"runtime.goschedImpl", "cpu.runtime.sched"},
	{"runtime.newproc", "cpu.runtime.sched"},
	{"runtime.goexit0", "cpu.runtime.sched"},
	{"runtime.(*timers)", "cpu.runtime.sched"},
	{"runtime.(*timer)", "cpu.runtime.sched"},
	{"runtime.sysmon", "cpu.runtime.sched"},
	{"runtime.checkTimers", "cpu.runtime.sched"},
	{"runtime.resetspinning", "cpu.runtime.sched"},
	{"runtime.handoffp", "cpu.runtime.sched"},
	{"runtime.acquirep", "cpu.runtime.sched"},
	{"runtime.releasep", "cpu.runtime.sched"},
	{"runtime.notify", "cpu.runtime.sched"},
}

// classify returns the bucket of one frame, or "" when the frame is a
// helper whose cost belongs to its caller.
func classify(fn string) string {
	for _, m := range modulePrefix {
		if strings.HasPrefix(fn, m.prefix) {
			return m.bucket
		}
	}
	for _, r := range runtimeClass {
		if strings.HasPrefix(fn, r.prefix) {
			return r.bucket
		}
	}
	return ""
}

// cpuProfile accumulates bucketed samples over one or more profiles.
type cpuProfile struct {
	total     int64
	buckets   map[string]int64
	memsize   int64 // samples with a MemSize frame anywhere on the stack
	transpose int64 // samples inside stream.(*Batch).AppendRow/AppendRows
	unknown   map[string]int64
}

func newCPUProfile() *cpuProfile {
	return &cpuProfile{buckets: map[string]int64{}, unknown: map[string]int64{}}
}

// profileHz is the sampling rate of traced runs: the live workload
// uses a fraction of a core, so pprof's default 100 Hz leaves too few
// samples to split across sixteen buckets.
const profileHz = 500

// profiler collects a CPU profile of the whole process.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	// Setting the rate first makes StartCPUProfile keep it (it prints a
	// one-line warning to standard error that the rate was already set).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds its samples into into.
func (p *profiler) stop(into *cpuProfile) error {
	pprof.StopCPUProfile()
	return into.add(p.buf.Bytes())
}

// add decodes a gzipped profile.proto and buckets each sample by the
// first frame, walking from the leaf, that classify places.
func (c *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		c.total += s.count
		bucket, leaf := "", ""
		mem, tr := false, false
		for _, locID := range s.locs {
			for _, fid := range p.locations[locID] {
				fn := p.strings[p.functions[fid]]
				if leaf == "" {
					leaf = fn
				}
				if bucket == "" {
					bucket = classify(fn)
				}
				if strings.HasSuffix(fn, ".MemSize") {
					mem = true
				}
				if strings.HasPrefix(fn, "streamdb/internal/stream.(*Batch).AppendRow") {
					tr = true
				}
			}
		}
		if bucket == "" {
			bucket = "cpu.other"
			c.unknown[leaf] += s.count
		}
		c.buckets[bucket] += s.count
		if mem {
			c.memsize += s.count
		}
		if tr {
			c.transpose += s.count
		}
	}
	return nil
}

// shares writes the bucket shares into out.
func (c *cpuProfile) shares(out map[string]float64) {
	n := float64(c.total)
	if n == 0 {
		n = 1
	}
	for _, b := range cpuBuckets {
		out[b] = float64(c.buckets[b]) / n
	}
	out["cpu.memsize"] = float64(c.memsize) / n
	out["cpu.transpose"] = float64(c.transpose) / n
	out["trace.samples"] = float64(c.total)
}

// topUnknown lists the leaf functions of samples no bucket claimed.
func topUnknown(p *cpuProfile, k int) map[string]int64 {
	type kv struct {
		fn string
		n  int64
	}
	var all []kv
	for fn, n := range p.unknown {
		all = append(all, kv{fn, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	out := map[string]int64{}
	for i := 0; i < len(all) && i < k; i++ {
		out[all[i].fn] = all[i].n
	}
	return out
}

// decodedProfile is the part of profile.proto the bucketing needs.
type decodedProfile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields calls fn for each field of one protobuf message: varint
// fields get v, length-delimited ones get b.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			fn(field, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func decodeProfile(raw []byte) (*decodedProfile, error) {
	p := &decodedProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var inner error
	err := protoFields(raw, func(field int, _ uint64, b []byte) {
		var e error
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			e = protoFields(b, func(f int, v uint64, sb []byte) {
				switch f {
				case 1:
					s.locs = varints(s.locs, v, sb)
				case 2:
					vals = varints(vals, v, sb)
				}
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			e = protoFields(b, func(f int, v uint64, lb []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line
					_ = protoFields(lb, func(lf int, lv uint64, _ []byte) {
						if lf == 1 {
							fns = append(fns, lv)
						}
					})
				}
			})
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			e = protoFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		if e != nil && inner == nil {
			inner = e
		}
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}
