package window

import (
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// ID identifies one window instance by its half-open extent
// [Start, End) in ordering-attribute units.
type ID struct {
	Start, End int64
}

// Assigner maps a tuple timestamp to the window instances it belongs to,
// and determines when instances close. This is the aggregation-side view
// of windows: a tumbling window assigns each tuple to exactly one
// instance, a sliding window with slide s and range r to r/s instances,
// an agglomerative (landmark) window to every instance from its arrival
// on (slide 27).
type Assigner struct {
	spec Spec
	buf  []ID
}

// NewAssigner builds an assigner for a validated time-window spec.
func NewAssigner(spec Spec) *Assigner { return &Assigner{spec: spec} }

// Assign returns the window instances containing ts. The returned slice
// is reused across calls. For landmark windows it returns the single
// growing instance [0, next-emission-boundary).
func (a *Assigner) Assign(ts int64) []ID {
	a.buf = a.buf[:0]
	s := a.spec
	if s.Landmark {
		end := (ts/s.Slide + 1) * s.Slide
		a.buf = append(a.buf, ID{Start: 0, End: end})
		return a.buf
	}
	// The last window starting at or before ts starts at
	// floor(ts/slide)*slide; earlier windows at multiples of slide back
	// while they still cover ts.
	last := (ts / s.Slide) * s.Slide
	for start := last; start > ts-s.Range; start -= s.Slide {
		if start < 0 {
			break
		}
		a.buf = append(a.buf, ID{Start: start, End: start + s.Range})
	}
	return a.buf
}

// Closed returns the largest window end boundary <= now: all window
// instances with End <= that boundary can be finalized once time has
// advanced to now. Returns 0 when no instance has closed yet.
func (a *Assigner) Closed(now int64) int64 {
	s := a.spec
	if s.Landmark {
		// Landmark windows close (emit a snapshot) at every landmark
		// emission boundary: multiples of the slide.
		return (now / s.Slide) * s.Slide
	}
	// Non-landmark ends are of the form k*Slide + Range, which lies on
	// slide multiples only when Range is a multiple of Slide. The largest
	// end <= now is floor((now-Range)/Slide)*Slide + Range.
	if now < s.Range {
		return 0
	}
	return ((now-s.Range)/s.Slide)*s.Slide + s.Range
}

// Spec returns the assigner's window spec.
func (a *Assigner) Spec() Spec { return a.spec }

// PunctBuffer implements punctuation-based windows [TMSF03] (slide 28):
// tuples accumulate until a punctuation arrives; the punctuation then
// closes and releases exactly the tuples it covers (e.g. all bids of a
// closed auction).
type PunctBuffer struct {
	pending []*tuple.Tuple
	bytes   int
}

// NewPunctBuffer builds an empty punctuation window buffer.
func NewPunctBuffer() *PunctBuffer { return &PunctBuffer{} }

// Insert adds a tuple to the open window.
func (p *PunctBuffer) Insert(t *tuple.Tuple) {
	p.pending = append(p.pending, t)
	p.bytes += t.MemSize()
}

// Close applies a punctuation: every pending tuple the punctuation
// covers is removed and returned (the closed window); uncovered tuples
// stay pending.
func (p *PunctBuffer) Close(punct *stream.Punctuation) []*tuple.Tuple {
	var closed []*tuple.Tuple
	keep := p.pending[:0]
	for _, t := range p.pending {
		if punct.Matches(t) {
			closed = append(closed, t)
			p.bytes -= t.MemSize()
		} else {
			keep = append(keep, t)
		}
	}
	// Clear the tail so released tuples are collectable.
	for i := len(keep); i < len(p.pending); i++ {
		p.pending[i] = nil
	}
	p.pending = keep
	return closed
}

// Len reports the number of pending tuples.
func (p *PunctBuffer) Len() int { return len(p.pending) }

// MemSize reports the approximate bytes held.
func (p *PunctBuffer) MemSize() int { return p.bytes }

// Partitioned wraps per-key buffers: the "partitioning tuples in a
// window" variant of slide 26 (CQL's PARTITION BY). Each distinct key
// gets an independent buffer built by mk.
type Partitioned struct {
	keyIdx []int
	mk     func() Buffer
	parts  map[uint64]*part
	// Running totals over every partition, kept by Insert and
	// Invalidate from each buffer's own Len/MemSize deltas.
	count, bytes int
}

type part struct {
	sample *tuple.Tuple // representative tuple for collision checks
	buf    Buffer
}

// NewPartitioned builds a partitioned buffer keyed on the given field
// positions.
func NewPartitioned(keyIdx []int, mk func() Buffer) *Partitioned {
	return &Partitioned{keyIdx: keyIdx, mk: mk, parts: make(map[uint64]*part)}
}

// Insert routes the tuple to its partition's buffer.
func (p *Partitioned) Insert(t *tuple.Tuple) {
	h := t.Key(p.keyIdx)
	pt, ok := p.parts[h]
	if !ok {
		pt = &part{sample: t, buf: p.mk()}
		p.parts[h] = pt
	}
	n, b := pt.buf.Len(), pt.buf.MemSize()
	pt.buf.Insert(t)
	p.count += pt.buf.Len() - n
	p.bytes += pt.buf.MemSize() - b
}

// Invalidate expires tuples in every partition and prunes empty ones.
func (p *Partitioned) Invalidate(now int64) int {
	dropped := 0
	for h, pt := range p.parts {
		n, b := pt.buf.Len(), pt.buf.MemSize()
		dropped += pt.buf.Invalidate(now)
		p.count += pt.buf.Len() - n
		p.bytes += pt.buf.MemSize() - b
		if pt.buf.Len() == 0 {
			p.bytes -= pt.buf.MemSize() // whatever an empty buffer still holds
			delete(p.parts, h)
		}
	}
	return dropped
}

// Each visits all live tuples partition by partition.
func (p *Partitioned) Each(f func(*tuple.Tuple) bool) {
	for _, pt := range p.parts {
		stop := false
		pt.buf.Each(func(t *tuple.Tuple) bool {
			if !f(t) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// EachInPartition visits live tuples whose key matches t's key.
func (p *Partitioned) EachInPartition(t *tuple.Tuple, f func(*tuple.Tuple) bool) {
	if pt, ok := p.parts[t.Key(p.keyIdx)]; ok {
		pt.buf.Each(f)
	}
}

// Len implements Buffer.
func (p *Partitioned) Len() int { return p.count }

// MemSize implements Buffer.
func (p *Partitioned) MemSize() int { return p.bytes }

// Partitions reports the number of live partitions.
func (p *Partitioned) Partitions() int { return len(p.parts) }
