package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Version == "" {
		opts.Version = "testver"
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	payload := []byte("hello runstore \x00\x01\x02")
	if _, ok := s.Get("k1"); ok {
		t.Fatal("unexpected hit on empty store")
	}
	if err := s.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedDirAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("shared", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("shared")
	if !ok || string(got) != "payload" {
		t.Fatalf("second handle Get = %q, %v", got, ok)
	}
}

func TestVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{Version: "old"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{Version: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k"); ok {
		t.Fatal("entry survived a source-hash change")
	}
}

func TestCorruptEntryDetectedAndRemoved(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put("k", []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	// Find the object file and flip one payload byte.
	var path string
	filepath.Walk(filepath.Join(s.Dir(), "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".run") {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no object file written")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-40] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	var path string
	filepath.Walk(filepath.Join(s.Dir(), "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".run") {
			path = p
		}
		return nil
	})
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits roughly two of the four ~1 KiB entries.
	s := openTest(t, Options{MaxBytes: 2500})
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU ordering is unambiguous even on coarse
		// filesystem timestamps.
		bumpMtimes(t, s, time.Duration(i)*2*time.Second)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions at %d bytes over a 2500-byte budget", st.Bytes)
	}
	if st := s.Stats(); st.Bytes > 2500 {
		t.Fatalf("store still over budget: %d bytes", st.Bytes)
	}
	// The newest entry must have survived.
	if _, ok := s.Get("k3"); !ok {
		t.Fatal("most recent entry was evicted")
	}
	if _, ok := s.Get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

// bumpMtimes ages every current object by -age relative to now so later
// writes are strictly newer.
func bumpMtimes(t *testing.T, s *Store, age time.Duration) {
	t.Helper()
	base := time.Now().Add(-time.Hour).Add(age)
	filepath.Walk(filepath.Join(s.Dir(), "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".run") {
			os.Chtimes(p, base, base)
		}
		return nil
	})
}

func TestGCAndClear(t *testing.T) {
	s := openTest(t, Options{MaxBytes: -1})
	payload := bytes.Repeat([]byte("y"), 512)
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("g%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	removed, remaining, err := s.GC(1200)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || remaining > 1200 {
		t.Fatalf("GC removed %d, remaining %d", removed, remaining)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, remaining, _ := s.GC(0); remaining != 0 {
		t.Fatalf("Clear left %d bytes", remaining)
	}
}

func TestLockKeyExcludes(t *testing.T) {
	s := openTest(t, Options{})
	unlock, err := s.LockKey("contended")
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		u, err := s.LockKey("contended")
		if err != nil {
			t.Error(err)
			return
		}
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("second LockKey acquired while first held")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("second LockKey never acquired after release")
	}
	wg.Wait()
}

func TestLockKeyTimeout(t *testing.T) {
	dir := t.TempDir()
	holder, err := Open(dir, Options{Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Open(dir, Options{Version: "v", LockTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := holder.LockKey("wedged")
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	start := time.Now()
	if _, err := bounded.LockKey("wedged"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("bounded LockKey behind a live holder: err = %v, want ErrLockTimeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timed-out LockKey waited %v for a 30ms bound", waited)
	}
	if got := bounded.Stats().LockTimeouts; got != 1 {
		t.Fatalf("Stats().LockTimeouts = %d, want 1", got)
	}
	// A different key is uncontended and must still lock instantly.
	u2, err := bounded.LockKey("free")
	if err != nil {
		t.Fatal(err)
	}
	u2()
}

func TestSourceHashStable(t *testing.T) {
	h1, err := SourceHash()
	if err != nil {
		t.Skipf("source tree unavailable: %v", err)
	}
	h2, _ := SourceHash()
	if h1 != h2 || len(h1) != 16 {
		t.Fatalf("SourceHash unstable or malformed: %q vs %q", h1, h2)
	}
}

func TestOpenSeedsSizeFromDisk(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", bytes.Repeat([]byte("z"), 2048)); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Bytes; got < 2048 {
		t.Fatalf("reopened store sees %d bytes, want >= 2048", got)
	}
}

// TestGetRefreshesRecency pins the LRU contract on the read side: a hit
// refreshes the entry's mtime, so an entry read after being aged
// outlives one that was written later but never read.
func TestGetRefreshesRecency(t *testing.T) {
	s := openTest(t, Options{MaxBytes: 2500})
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Age every entry, k0 the oldest, so without a refresh k0 is the
	// first eviction.
	for i, age := range []time.Duration{2 * time.Hour, time.Hour} {
		old := time.Now().Add(-age)
		if err := os.Chtimes(keyPath(s, fmt.Sprintf("k%d", i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put("k2", payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 was read after aging but evicted: Get did not refresh its recency")
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("k1, the least recently used entry, survived eviction")
	}
}
