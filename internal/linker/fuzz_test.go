package linker

import (
	"encoding/binary"
	"errors"
	"testing"
)

// wordsOf reads data as little-endian 64-bit words; a trailing partial
// word is dropped.
func wordsOf(data []byte) []uint64 {
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return words
}

// parseClassified reports whether err is one of the parser's classified
// failures.
func parseClassified(err error) bool {
	return errors.Is(err, ErrCorruptSymtab) || errors.Is(err, ErrBadMagic)
}

// FuzzListSymbols feeds arbitrary word slices to the symbol-table
// parsers, the input a ring-0 linker must survive. Every input must yield
// symbols or a classified error, never a panic, and FindEntry must agree
// with ListSymbols: on a table ListSymbols accepts, every name resolves
// to its first listed entry and any other name is ErrNoSuchEntry; a bad
// magic fails both alike; and no entry FindEntry returns is implausible.
func FuzzListSymbols(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, probe string) {
		if len(data) > 1<<16 {
			return
		}
		words := wordsOf(data)
		read := readerOver(words)
		syms, listErr := ListSymbols(read)
		if listErr != nil && !parseClassified(listErr) {
			t.Fatalf("ListSymbols: unclassified error %v", listErr)
		}
		probeEntry, probeErr := FindEntry(read, probe)
		if probeErr != nil && !parseClassified(probeErr) && !errors.Is(probeErr, ErrNoSuchEntry) {
			t.Fatalf("FindEntry(%q): unclassified error %v", probe, probeErr)
		}
		if probeErr == nil && (probeEntry < 0 || probeEntry > MaxSymbols) {
			t.Fatalf("FindEntry(%q) = implausible entry %d", probe, probeEntry)
		}
		if errors.Is(listErr, ErrBadMagic) != errors.Is(probeErr, ErrBadMagic) {
			t.Fatalf("bad magic: ListSymbols %v, FindEntry %v", listErr, probeErr)
		}
		if listErr != nil {
			return
		}

		first := make(map[string]int, len(syms))
		for _, s := range syms {
			if _, ok := first[s.Name]; !ok {
				first[s.Name] = s.Entry
			}
		}
		for name, want := range first {
			if got, err := FindEntry(read, name); err != nil || got != want {
				t.Fatalf("FindEntry(%q) = %d, %v; ListSymbols lists entry %d", name, got, err, want)
			}
		}
		if want, ok := first[probe]; ok {
			if probeErr != nil || probeEntry != want {
				t.Fatalf("FindEntry(%q) = %d, %v; ListSymbols lists entry %d", probe, probeEntry, probeErr, want)
			}
		} else if !errors.Is(probeErr, ErrNoSuchEntry) {
			t.Fatalf("FindEntry(%q) = %d, %v on a table that does not define it", probe, probeEntry, probeErr)
		}

		// An accepted table re-encodes to one that lists the same symbols.
		enc, err := EncodeSymtab(syms)
		if err != nil {
			t.Fatalf("EncodeSymtab of a listed table: %v", err)
		}
		again, err := ListSymbols(readerOver(enc))
		if err != nil || len(again) != len(syms) {
			t.Fatalf("re-encoded table lists %d symbols, %v; want %d", len(again), err, len(syms))
		}
		for i := range syms {
			if again[i] != syms[i] {
				t.Fatalf("re-encoded symbol %d = %+v, want %+v", i, again[i], syms[i])
			}
		}
	})
}
