package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"keyedeq/internal/containment"
)

// FuzzStoreReplay corrupts a verdict log at fuzz-chosen offsets and
// checks what Open and Replay make of it.  The fuzzer picks how many
// records to write, then either overwrites bytes in place (clipped to
// the file, so no new frame can be appended) or truncates the file.
// Open must fail with the bad-magic error exactly when the header was
// hit.  Otherwise it must succeed, and Replay must yield a prefix of
// the written records, at least every record whose frame lies wholly
// before the first damaged byte.  Neither may panic, and neither may
// allocate more than one maximal record beyond the file's own size:
// a corrupt length field must not size an allocation.
func FuzzStoreReplay(f *testing.F) {
	f.Add(uint8(3), false, uint32(0), []byte("XXXX"))      // header hit
	f.Add(uint8(3), false, uint32(9), []byte{0xff, 0xff})  // first frame length
	f.Add(uint8(3), false, uint32(20), []byte("garbage"))  // first payload
	f.Add(uint8(5), false, uint32(70), []byte{0, 0, 0, 1}) // a later frame
	f.Add(uint8(4), true, uint32(0), []byte(nil))          // truncate to empty
	f.Add(uint8(4), true, uint32(5), []byte(nil))          // truncate inside the header
	f.Add(uint8(4), true, uint32(37), []byte(nil))         // truncate mid-frame
	f.Add(uint8(2), true, uint32(1<<20), []byte(nil))      // truncate past the end
	f.Fuzz(func(t *testing.T, n uint8, truncate bool, off uint32, data []byte) {
		path := filepath.Join(t.TempDir(), "verdicts.log")
		recs := make([]Record, int(n%8)+1)
		for i := range recs {
			recs[i] = Record{
				Key:   fmt.Sprintf("fp\x1dequ\x1eq%d\x1fr%d", i, i*7),
				Holds: i%2 == 0,
				Stats: containment.SearchStats(int64(i * 13)),
			}
		}
		l, err := Open(path, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// frameEnds[i] is the file offset just past record i's frame.
		frameEnds := make([]int, len(recs))
		end := len(logMagic)
		for i := range recs {
			end += frameHeaderLen + int(binary.LittleEndian.Uint32(orig[end:]))
			frameEnds[i] = end
		}

		b := append([]byte(nil), orig...)
		damage := len(b)
		if truncate {
			cut := int(off % uint32(len(b)+1))
			b, damage = b[:cut], cut
		} else if len(b) > 0 {
			at := int(off % uint32(len(b)))
			if k := copy(b[at:], data); k > 0 {
				damage = at
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		intact := 0
		for intact < len(recs) && frameEnds[intact] <= damage {
			intact++
		}
		headerHit := len(b) > 0 && (len(b) < len(logMagic) || string(b[:len(logMagic)]) != logMagic)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l2, err := Open(path, Options{})
		if headerHit {
			if err == nil {
				l2.Close()
				t.Fatalf("header damaged (%q) but Open succeeded", b[:min(len(b), len(logMagic))])
			}
			if !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("header damaged: Open error %v, want the bad-magic error", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("header intact but Open failed: %v", err)
		}
		defer l2.Close()
		var got []Record
		if err := l2.Replay(func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("replay after recovery: %v", err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxRecordLen+uint64(len(b))+1<<20 {
			t.Fatalf("Open+Replay allocated %d bytes over a %d-byte file", grew, len(b))
		}
		if len(got) < intact || len(got) > len(recs) {
			t.Fatalf("replayed %d records; %d were intact of %d written", len(got), intact, len(recs))
		}
		for i, r := range got {
			if r != recs[i] {
				t.Fatalf("replayed record %d = %+v, want %+v: not a prefix of the written log", i, r, recs[i])
			}
		}
		if rs := l2.RecoveryStats(); rs.Records != len(got) {
			t.Fatalf("recovery counted %d records, replay yielded %d", rs.Records, len(got))
		}
	})
}
