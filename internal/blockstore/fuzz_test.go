package blockstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/mem"
)

// resealed returns a copy of data with the CRC of every whole frame that
// starts with the record magic recomputed, so fuzzed payloads get past
// the checksum and into record decoding.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; len(out)-off >= recHdrSize; {
		if binary.LittleEndian.Uint32(out[off:]) != recMagic {
			break
		}
		plen := int(binary.LittleEndian.Uint32(out[off+5:]))
		if len(out)-off-recHdrSize < plen {
			break
		}
		crc := crc32.Checksum(out[off+4:off+9], crcTable)
		crc = crc32.Update(crc, crcTable, out[off+recHdrSize:off+recHdrSize+plen])
		binary.LittleEndian.PutUint32(out[off+9:], crc)
		off += recHdrSize + plen
	}
	return out
}

// FuzzJournalReplay opens a store over arbitrary journal bytes. Replay
// must never panic. It either fails with an error wrapping ErrCorrupt, or
// it succeeds, and then every live and checkpointed block's words hash to
// the address it is stored under, a torn tail has been cut off the
// medium, and reopening the cut journal replays the same records with no
// further tear. With reseal set, frame CRCs are fixed up first so the
// fuzzer reaches record decoding. The seed corpus (testdata/fuzz) runs
// under plain go test; scripts/fuzz.sh fuzzes it.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if len(data) > 1<<16 {
			return
		}
		if reseal {
			data = resealed(data)
		}
		m := NewMemMedia()
		if err := m.Append(data); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(Config{Media: m})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed without ErrCorrupt: %v", err)
			}
			return
		}
		for what, index := range map[string]map[mem.PageID]ref{"live": s.index, "checkpoint": s.ckpt} {
			for p, r := range index {
				words, ok := s.content[r]
				if !ok {
					t.Fatalf("%s block %v maps to missing content %v", what, p, r)
				}
				if got := refOf(words); got != r {
					t.Fatalf("%s block %v stored under %v, its words hash to %v", what, p, r, got)
				}
			}
		}
		if m.Size() != rep.JournalSize {
			t.Fatalf("medium holds %d bytes after replay, report says %d", m.Size(), rep.JournalSize)
		}
		_, again, err := Open(Config{Media: m})
		if err != nil {
			t.Fatalf("reopening the recovered journal: %v", err)
		}
		if again.Truncated || again.Records != rep.Records {
			t.Fatalf("reopen replayed %+v, first open %+v", again, rep)
		}
	})
}
