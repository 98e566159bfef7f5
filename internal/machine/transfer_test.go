package machine

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Flags selecting the machine state a run transfer starts from.
const (
	xferWrite     = 1 << iota // StoreBytes instead of LoadWords
	xferAssocOff              // associative memory disabled
	xferRingDeny              // brackets exclude the executing ring
	xferNonCore               // segment backed by something other than CoreBacking
	xferWarm                  // one reference before the transfer fills the assoc memory
	xferMalformed             // plant a word above 0xff at index bad
	xferReadAll               // LoadWords reads every word instead of stopping above 0xff
)

const xferSeg SegNo = 3

// sliceBacking is a resident backing that is not a CoreBacking, so runs
// over it must take the per-word path.
type sliceBacking struct{ words []uint64 }

func (b *sliceBacking) ReadWord(off int) (uint64, error) {
	if off < 0 || off >= len(b.words) {
		return 0, &Fault{Class: FaultOutOfBounds, Offset: off}
	}
	return b.words[off], nil
}

func (b *sliceBacking) WriteWord(off int, val uint64) error {
	if off < 0 || off >= len(b.words) {
		return &Fault{Class: FaultOutOfBounds, Offset: off}
	}
	b.words[off] = val
	return nil
}

func (b *sliceBacking) Length() int { return len(b.words) }

// xferRig is one processor set up for a transfer, with everything the
// comparison looks at.
type xferRig struct {
	p      *Processor
	clk    *Clock
	reg    *metrics.Registry
	events []trace.Event
	words  []uint64
}

func newXferRig(t *testing.T, data []byte, flags uint8, bad uint16) *xferRig {
	t.Helper()
	r := &xferRig{reg: metrics.New(), words: make([]uint64, len(data))}
	for i, c := range data {
		r.words[i] = uint64(c)
	}
	if flags&xferMalformed != 0 {
		r.words[int(bad)%len(r.words)] = 0x100 + uint64(bad)
	}
	var backing Backing
	if flags&xferNonCore != 0 {
		backing = &sliceBacking{words: r.words}
	} else {
		cb := NewCoreBacking(len(r.words))
		copy(cb.Words(), r.words)
		r.words = cb.Words()
		backing = cb
	}
	brackets := UserBrackets(UserRing)
	if flags&xferRingDeny != 0 {
		brackets = Brackets{R1: SupervisorRing, R2: SupervisorRing, R3: SupervisorRing}
	}
	var ds *DescriptorSegment
	r.p, ds, r.clk = newTestProc(UserRing, Model6180())
	mustSet(t, ds, xferSeg, SDW{Backing: backing, Mode: ModeRead | ModeWrite, Brackets: brackets})
	r.p.SetMetrics(r.reg)
	r.p.SetSink(trace.SinkFunc(func(ev trace.Event) { r.events = append(r.events, ev) }))
	r.p.SetAssocEnabled(flags&xferAssocOff == 0)
	if flags&xferWarm != 0 {
		_, _ = r.p.Load(xferSeg, 0)
	}
	return r
}

// sameOutcome fails t unless two rigs ended in identical states.
func sameOutcome(t *testing.T, bulk, ref *xferRig) {
	t.Helper()
	if b, r := bulk.clk.Now(), ref.clk.Now(); b != r {
		t.Errorf("clock %d, per-word reference %d", b, r)
	}
	if b, r := bulk.p.Stats(), ref.p.Stats(); !reflect.DeepEqual(b, r) {
		t.Errorf("stats %+v, per-word reference %+v", b, r)
	}
	for _, name := range []string{"machine.assoc_hits", "machine.assoc_misses", "machine.faults"} {
		if b, r := bulk.reg.Counter(name).Value(), ref.reg.Counter(name).Value(); b != r {
			t.Errorf("%s %d, per-word reference %d", name, b, r)
		}
	}
	if !reflect.DeepEqual(bulk.events, ref.events) {
		t.Errorf("fault events %v, per-word reference %v", bulk.events, ref.events)
	}
	if !reflect.DeepEqual(bulk.words, ref.words) {
		t.Errorf("segment words differ from the per-word reference")
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzArgStringTransfer checks LoadWords and StoreBytes against the
// per-word loops they replace: the same bytes, count and error, the same
// clock reading, Stats, machine.* counters and fault events, whatever the
// segment, offset, length and associative-memory state. The seed corpus
// (testdata/fuzz) runs under plain go test; scripts/fuzz.sh fuzzes it.
func FuzzArgStringTransfer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, off, n int, flags uint8, bad uint16) {
		if len(data) == 0 || len(data) > 4096 || n < 0 || n > 4096 {
			return
		}
		bulk := newXferRig(t, data, flags, bad)
		ref := newXferRig(t, data, flags, bad)
		if flags&xferWrite != 0 {
			src := make([]byte, n)
			for i := range src {
				src[i] = data[i%len(data)] ^ 0x5a
			}
			gotN, gotErr := bulk.p.StoreBytes(xferSeg, off, src)
			wantN, wantErr := 0, error(nil)
			for ; wantN < n; wantN++ {
				if wantErr = ref.p.Store(xferSeg, off+wantN, uint64(src[wantN])); wantErr != nil {
					break
				}
			}
			if gotN != wantN || errString(gotErr) != errString(wantErr) {
				t.Errorf("StoreBytes = %d, %v; per-word reference %d, %v", gotN, gotErr, wantN, wantErr)
			}
			sameOutcome(t, bulk, ref)
			return
		}
		stop := uint64(0xff)
		if flags&xferReadAll != 0 {
			stop = ^uint64(0)
		}
		got := make([]uint64, n)
		gotN, gotErr := bulk.p.LoadWords(xferSeg, off, got, stop)
		want := make([]uint64, n)
		wantN, wantErr := 0, error(nil)
		for wantN < n {
			var w uint64
			if w, wantErr = ref.p.Load(xferSeg, off+wantN); wantErr != nil {
				break
			}
			want[wantN] = w
			wantN++
			if w > stop {
				break
			}
		}
		if gotN != wantN || errString(gotErr) != errString(wantErr) {
			t.Errorf("LoadWords = %d, %v; per-word reference %d, %v", gotN, gotErr, wantN, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("LoadWords read %v, per-word reference %v", got, want)
		}
		sameOutcome(t, bulk, ref)
	})
}

// A warm, resident run round-trips through StoreBytes and LoadWords at
// exactly one associative-memory hit per word, counted in the registry.
func TestStoreBytesThenLoadWordsRoundTrip(t *testing.T) {
	r := newXferRig(t, make([]byte, 64), xferWarm, 0)
	hitsC := r.reg.Counter("machine.assoc_hits")
	hits := hitsC.Value()
	if n, err := r.p.StoreBytes(xferSeg, 10, []byte("segment")); n != 7 || err != nil {
		t.Fatalf("StoreBytes = %d, %v", n, err)
	}
	dst := make([]uint64, 7)
	if n, err := r.p.LoadWords(xferSeg, 10, dst, 0xff); n != 7 || err != nil {
		t.Fatalf("LoadWords = %d, %v", n, err)
	}
	out := make([]byte, len(dst))
	for i, w := range dst {
		out[i] = byte(w)
	}
	if string(out) != "segment" {
		t.Errorf("round trip read %q", out)
	}
	if got := hitsC.Value() - hits; got != 14 {
		t.Errorf("assoc hits for 14 words = %d", got)
	}
}
