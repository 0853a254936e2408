package window

import "streamdb/internal/tuple"

// fifoSegLen is the tuples-per-segment granularity of Fifo. 64 pointers
// per segment keeps a segment within a cache-line multiple while making
// the freelist amortize allocation over 64 inserts.
const fifoSegLen = 64

// fifoFreeCap bounds the per-Fifo segment freelist so a transient burst
// does not pin memory forever.
const fifoFreeCap = 8

type fifoSeg struct {
	next  *fifoSeg
	elems [fifoSegLen]*tuple.Tuple
}

// Fifo is a queue of tuples backed by a linked list of fixed-size
// segments with a small per-instance freelist: the join operators'
// insertion-order state. Compared to a plain slice FIFO it neither
// leaks its consumed prefix (a reslice pins the backing array) nor
// reallocates on growth, and emptied segments are recycled locally, so
// steady-state windows reach a zero-allocation regime.
type Fifo struct {
	head, tail *fifoSeg
	headIdx    int // first live slot in head
	tailIdx    int // next free slot in tail
	count      int
	segs       int // segments in the live list (head..tail)
	free       *fifoSeg
	nfree      int
	bytes      int
}

// NewFifo builds an empty tuple FIFO.
func NewFifo() *Fifo { return &Fifo{} }

// getSeg returns an empty segment for the live list: recycled when the
// freelist has one, fresh otherwise.
func (f *Fifo) getSeg() *fifoSeg {
	f.segs++
	if f.free != nil {
		s := f.free
		f.free = s.next
		s.next = nil
		f.nfree--
		return s
	}
	return &fifoSeg{}
}

// putSeg takes an emptied segment off the live list, keeping it on the
// freelist while that has room.
func (f *Fifo) putSeg(s *fifoSeg) {
	f.segs--
	if f.nfree >= fifoFreeCap {
		return // let the GC take it
	}
	*s = fifoSeg{next: f.free}
	f.free = s
	f.nfree++
}

// Push appends a tuple at the tail.
func (f *Fifo) Push(t *tuple.Tuple) {
	if f.tail == nil {
		f.tail = f.getSeg()
		f.head = f.tail
		f.headIdx, f.tailIdx = 0, 0
	} else if f.tailIdx == fifoSegLen {
		s := f.getSeg()
		f.tail.next = s
		f.tail = s
		f.tailIdx = 0
	}
	f.tail.elems[f.tailIdx] = t
	f.tailIdx++
	f.count++
	f.bytes += t.MemSize()
}

// PushRun appends a run of tuples at the tail, copying segment-sized
// chunks instead of re-checking the tail boundary per tuple: the bulk
// lane of the columnar join insert, where a whole equal-timestamp run
// lands in the window at once. Equivalent to calling Push in order.
func (f *Fifo) PushRun(run []*tuple.Tuple) {
	for len(run) > 0 {
		if f.tail == nil {
			f.tail = f.getSeg()
			f.head = f.tail
			f.headIdx, f.tailIdx = 0, 0
		} else if f.tailIdx == fifoSegLen {
			s := f.getSeg()
			f.tail.next = s
			f.tail = s
			f.tailIdx = 0
		}
		n := copy(f.tail.elems[f.tailIdx:], run)
		f.tailIdx += n
		f.count += n
		for _, t := range run[:n] {
			f.bytes += t.MemSize()
		}
		run = run[n:]
	}
}

// Front returns the oldest tuple, or nil when empty.
func (f *Fifo) Front() *tuple.Tuple {
	if f.count == 0 {
		return nil
	}
	return f.head.elems[f.headIdx]
}

// PopFront removes and returns the oldest tuple (nil when empty),
// recycling emptied segments through the freelist.
func (f *Fifo) PopFront() *tuple.Tuple {
	if f.count == 0 {
		return nil
	}
	t := f.head.elems[f.headIdx]
	f.head.elems[f.headIdx] = nil
	f.headIdx++
	f.count--
	f.bytes -= t.MemSize()
	if f.headIdx == fifoSegLen {
		s := f.head
		f.head = s.next
		f.headIdx = 0
		f.putSeg(s)
		if f.head == nil {
			f.tail = nil
			f.tailIdx = 0
		}
	} else if f.count == 0 {
		// Single partially-consumed segment: rewind it so a long-lived
		// queue does not creep through fresh segments while empty.
		f.headIdx = 0
		f.tailIdx = 0
	}
	return t
}

// Each visits live tuples oldest-first; return false to stop.
func (f *Fifo) Each(fn func(*tuple.Tuple) bool) {
	idx := f.headIdx
	for s := f.head; s != nil; s = s.next {
		end := fifoSegLen
		if s == f.tail {
			end = f.tailIdx
		}
		for ; idx < end; idx++ {
			if !fn(s.elems[idx]) {
				return
			}
		}
		idx = 0
	}
}

// AppendTo appends every live tuple oldest-first to dst and returns the
// extended slice: the snapshot path of the checkpoint subsystem, which
// serializes a window's contents without disturbing segment structure.
func (f *Fifo) AppendTo(dst []*tuple.Tuple) []*tuple.Tuple {
	if cap(dst)-len(dst) < f.count {
		grown := make([]*tuple.Tuple, len(dst), len(dst)+f.count)
		copy(grown, dst)
		dst = grown
	}
	f.Each(func(t *tuple.Tuple) bool {
		dst = append(dst, t)
		return true
	})
	return dst
}

// Len reports the number of queued tuples.
func (f *Fifo) Len() int { return f.count }

// MemSize reports the approximate bytes held (tuples plus live
// segments), from counters kept by Push, PushRun and PopFront.
func (f *Fifo) MemSize() int {
	return f.bytes + f.segs*(16+8*fifoSegLen)
}
