package runstore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// keyPath is the object file that holds key's entry in s.
func keyPath(s *Store, key string) string {
	return s.objectPath(key)
}

// decodeFor is the frame check Get applies to a whole object file read
// for key.
func decodeFor(s *Store, key string, data []byte) ([]byte, error) {
	return decodeEntry(data, s.prefix, key)
}

// FuzzStoreGet writes arbitrary bytes at a key's object path and checks
// Get against the frame decoder applied to the whole file: a hit exactly
// when the decoder accepts, with the same payload and a refreshed mtime;
// otherwise a miss that deletes the file and counts it corrupt once.
func FuzzStoreGet(f *testing.F) {
	s, err := Open(f.TempDir(), Options{Version: "fuzzver", MaxBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	const key = "v1|stream|fuzz"
	path := keyPath(s, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	frame := func(payload []byte) []byte { return encodeEntry(s.prefix+key, payload) }
	small := frame([]byte("a summary of a few hundred bytes"))
	f.Add(small)
	f.Add(frame(nil))
	f.Add(frame(bytes.Repeat([]byte{0xa5}, 1<<16)))
	f.Add(frame(bytes.Repeat([]byte{0x5a}, 1<<20)))
	// Frames of the first read buffer's length and either side of it,
	// whole and with a trailing byte.
	for _, n := range []int{1023, 1024, 1025} {
		fr := frame(make([]byte, n-frameHeader-len(s.prefix+key)-sha256.Size))
		f.Add(fr)
		f.Add(append(fr, 0))
	}
	f.Add(append(append([]byte(nil), small...), 0))
	f.Add(small[:len(small)-1])
	f.Add(encodeEntry(s.prefix+"other", []byte("payload")))
	f.Add([]byte{})
	f.Add(entryMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-time.Hour).Truncate(time.Second)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		want, werr := decodeFor(s, key, data)
		before := s.Stats()
		got, ok := s.Get(key)
		after := s.Stats()
		fi, serr := os.Stat(path)
		if werr != nil {
			if ok {
				t.Fatalf("Get served a hit (%d bytes) the decoder rejects: %v", len(got), werr)
			}
			if !os.IsNotExist(serr) {
				t.Fatalf("rejected entry not deleted: stat err %v", serr)
			}
			if after.Corrupt-before.Corrupt != 1 || after.Misses-before.Misses != 1 || after.Hits != before.Hits {
				t.Fatalf("rejected entry: stats %+v -> %+v, want one corrupt miss", before, after)
			}
			return
		}
		if !ok {
			t.Fatal("Get missed an entry the decoder accepts")
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get payload (%d bytes) differs from the decoder's (%d bytes)", len(got), len(want))
		}
		if after.Hits-before.Hits != 1 || after.Misses != before.Misses || after.Corrupt != before.Corrupt {
			t.Fatalf("hit: stats %+v -> %+v, want one hit", before, after)
		}
		if serr != nil {
			t.Fatalf("hit entry gone: %v", serr)
		}
		if !fi.ModTime().After(old) {
			t.Fatalf("hit left mtime at %v, want it refreshed", fi.ModTime())
		}
	})
}
