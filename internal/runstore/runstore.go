// Package runstore is a disk-backed, content-addressed store for
// simulation results, shared by every process that points at the same
// directory. It is the persistent second tier below the in-memory
// metrics.Session run cache: keys are canonical input fingerprints
// (extended with the store schema version and a content hash of the
// simulation-relevant source packages, so any change to the simulators
// automatically invalidates stale entries), values are opaque payloads
// the caller serializes (metrics encodes runs' score summaries and
// traces, keyed engine sweeps store their cell results as JSON, so
// rerunning an interrupted sweep executes only the cells it never
// finished).
//
// Entries are written atomically (temp file + rename) with a per-entry
// SHA-256 checksum, verified — and deleted when corrupt — on every read.
// Cross-process mutual exclusion uses advisory per-key file locks
// (LockKey), so concurrent CLIs and parallel sweep workers sharing one
// store simulate each unique cell once. The store is size-capped with
// LRU eviction by access time: every hit refreshes its entry's mtime,
// so reads count as use. On unix a hit reads its entry on a raw
// descriptor (open, one read, close; see readEntry) before that refresh.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is baked into every canonical key. Bump it whenever the
// entry layout or any payload codec changes incompatibly; old entries
// then simply never match and age out via LRU eviction.
const SchemaVersion = 5

// DefaultMaxBytes caps the store at 1 GiB unless configured otherwise.
const DefaultMaxBytes = 1 << 30

// entryMagic heads every object file.
var entryMagic = [8]byte{'A', 'X', 'R', 'S', '0', '0', '0', '1'}

// Options configures Open.
type Options struct {
	// MaxBytes caps the store's total object size: 0 selects
	// DefaultMaxBytes, negative disables eviction entirely.
	MaxBytes int64
	// Version overrides the source-content hash folded into every key.
	// Empty (the default) computes SourceHash; tests pin it to isolate
	// store behavior from the live source tree.
	Version string
	// LockTimeout bounds every per-key (and gc) advisory-lock wait. A
	// holder that dies releases its flock automatically, but a wedged
	// live holder used to block waiters indefinitely; with a timeout the
	// wait trips with an error wrapping ErrLockTimeout — surfaced as the
	// runstore.flock.timeouts counter and a flight-recorder event — and
	// callers degrade to lock-free idempotent behavior. 0 (the default)
	// waits forever, preserving strict cross-process single-flight;
	// negative also waits forever.
	LockTimeout time.Duration
}

// ErrLockTimeout matches (errors.Is) the error LockKey returns when a
// configured Options.LockTimeout expires before the per-key advisory
// lock could be acquired.
var ErrLockTimeout = errors.New("runstore: lock wait timed out")

// Stats counts what one process observed of the store. Bytes is the
// (approximate, process-local) current object volume.
type Stats struct {
	Hits         int64
	Misses       int64
	Puts         int64
	Evictions    int64
	Corrupt      int64
	LockTimeouts int64
	Bytes        int64
}

// store telemetry, recorded only while obs is enabled. Cached pointers:
// the registry preserves metric identity across Reset.
var (
	storeHits         = obs.GetCounter("runstore.hits")
	storeMisses       = obs.GetCounter("runstore.misses")
	storePuts         = obs.GetCounter("runstore.puts")
	storeEvictions    = obs.GetCounter("runstore.evictions")
	storeCorrupt      = obs.GetCounter("runstore.corrupt")
	storeLockTimeouts = obs.GetCounter("runstore.flock.timeouts")
)

// Store is one process's handle on a shared store directory. All methods
// are safe for concurrent use by multiple goroutines, and the on-disk
// protocol is safe across processes.
type Store struct {
	dir         string
	objects     string // dir/objects/, the object tree's root
	prefix      string // canonical key prefix: "v<schema>|<srchash>|"
	maxBytes    int64  // <0 = unlimited
	lockTimeout time.Duration

	hits         atomic.Int64
	misses       atomic.Int64
	puts         atomic.Int64
	evictions    atomic.Int64
	corrupt      atomic.Int64
	lockTimeouts atomic.Int64
	bytes        atomic.Int64
}

// DefaultDir returns the per-user default store location
// (<user-cache>/axiomcc/runstore).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("runstore: no user cache dir: %w", err)
	}
	return filepath.Join(base, "axiomcc", "runstore"), nil
}

// Open creates (if needed) and opens the store rooted at dir. An empty
// dir selects DefaultDir. Opening scans the object tree once to seed the
// size accounting used by LRU eviction.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	version := opts.Version
	if version == "" {
		var err error
		if version, err = SourceHash(); err != nil {
			return nil, err
		}
	}
	for _, sub := range []string{"objects", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
	}
	s := &Store{
		dir:         dir,
		objects:     filepath.Join(dir, "objects") + string(filepath.Separator),
		prefix:      fmt.Sprintf("v%d|%s|", SchemaVersion, version),
		maxBytes:    opts.MaxBytes,
		lockTimeout: opts.LockTimeout,
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	size, _, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.bytes.Store(size)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of this handle's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Evictions:    s.evictions.Load(),
		Corrupt:      s.corrupt.Load(),
		LockTimeouts: s.lockTimeouts.Load(),
		Bytes:        s.bytes.Load(),
	}
}

// keyAddr is the hex SHA-256 of a canonical key: its object's address.
type keyAddr [2 * sha256.Size]byte

// addr hashes key's canonical form, the prefix (schema version and
// source hash) followed by the caller's logical key, so a source change
// re-addresses every entry at once. Keys up to a few hundred bytes are
// hashed from a stack buffer.
func (s *Store) addr(key string) keyAddr {
	var buf [512]byte
	sum := sha256.Sum256(append(append(buf[:0], s.prefix...), key...))
	var a keyAddr
	hex.Encode(a[:], sum[:])
	return a
}

// objectPath is key's object file, objects/<a[:2]>/<a[2:]>.run for its
// address a, built in one concatenation.
func (s *Store) objectPath(key string) string {
	a := s.addr(key)
	return s.objects + string(a[:2]) + string(filepath.Separator) + string(a[2:]) + ".run"
}

// Get returns the payload stored under key, or ok=false. A torn,
// truncated, or checksum-failing entry counts as corrupt, is deleted,
// and reads as a miss; a hit refreshes the entry's mtime so eviction
// stays LRU. An entry that fits the stack buffer is read, on unix, with
// one open, one read and one close (see readEntry), and the mtime
// refresh is one more call.
func (s *Store) Get(key string) ([]byte, bool) {
	sp := obs.StartLeafSpan("runstore.get")
	defer sp.End()
	path := s.objectPath(key)
	var buf [1024]byte
	data, err := readEntry(path, buf[:])
	if err != nil {
		s.misses.Add(1)
		if obs.Enabled() {
			storeMisses.Inc()
		}
		return nil, false
	}
	payload, err := decodeEntry(data, s.prefix, key)
	if err != nil {
		os.Remove(path)
		s.corrupt.Add(1)
		s.misses.Add(1)
		if obs.Enabled() {
			storeCorrupt.Inc()
			storeMisses.Inc()
		}
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU recency
	s.hits.Add(1)
	if obs.Enabled() {
		storeHits.Inc()
	}
	return payload, true
}

// Put stores payload under key, atomically (temp file + rename), and
// evicts least-recently-used entries when the store exceeds its byte
// budget. Put never fails the caller's computation path for transient
// disk trouble beyond reporting the error.
func (s *Store) Put(key string, payload []byte) error {
	sp := obs.StartLeafSpan("runstore.put")
	defer sp.End()
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	data := encodeEntry(s.prefix+key, payload)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	s.puts.Add(1)
	if obs.Enabled() {
		storePuts.Inc()
	}
	if total := s.bytes.Add(int64(len(data))); s.maxBytes >= 0 && total > s.maxBytes {
		s.evict(s.maxBytes)
	}
	return nil
}

// GC evicts least-recently-used entries until the store's object volume
// is at most maxBytes (0 reuses the store's configured budget) and
// removes abandoned temp files. It reports how many entries were
// removed and how many bytes remain.
func (s *Store) GC(maxBytes int64) (removed int, remaining int64, err error) {
	if maxBytes <= 0 {
		maxBytes = s.maxBytes
	}
	if maxBytes < 0 {
		maxBytes = DefaultMaxBytes
	}
	removed = s.evict(maxBytes)
	return removed, s.bytes.Load(), nil
}

// Clear removes every object in the store (locks are kept: another
// process may be holding one).
func (s *Store) Clear() error {
	err := os.RemoveAll(filepath.Join(s.dir, "objects"))
	if mkErr := os.MkdirAll(filepath.Join(s.dir, "objects"), 0o755); err == nil {
		err = mkErr
	}
	s.bytes.Store(0)
	return err
}

// entryInfo is one object file seen by a scan, ordered by access time.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks the object tree, deleting stale temp files, and returns the
// total size and the per-entry listing.
func (s *Store) scan() (int64, []entryInfo, error) {
	var total int64
	var entries []entryInfo
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished entry (concurrent eviction) is not an error
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if filepath.Ext(path) != ".run" {
			// Abandoned temp file from a crashed writer: reap once old
			// enough that no live writer can still be renaming it.
			if time.Since(info.ModTime()) > time.Hour {
				os.Remove(path)
			}
			return nil
		}
		total += info.Size()
		entries = append(entries, entryInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("runstore: %w", err)
	}
	return total, entries, nil
}

// evict removes oldest-accessed entries until the store is within limit,
// under the store-wide gc lock so concurrent processes don't thrash.
// Returns the number of entries removed.
func (s *Store) evict(limit int64) int {
	sp := obs.StartLeafSpan("runstore.gc")
	defer sp.End()
	unlock, err := s.lockFile("gc.lock")
	if err != nil {
		return 0
	}
	defer unlock()
	total, entries, err := s.scan()
	if err != nil {
		return 0
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].mtime.Before(entries[b].mtime) })
	removed := 0
	for _, e := range entries {
		if total <= limit {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			removed++
			s.evictions.Add(1)
			if obs.Enabled() {
				storeEvictions.Inc()
			}
		}
	}
	s.bytes.Store(total)
	return removed
}

// LockKey acquires the advisory cross-process lock for key — blocking
// until it is free, or at most the store's configured LockTimeout — and
// returns the release func. Claimants simulate while holding the lock;
// everyone else blocks in LockKey, then finds the finished entry with
// Get — single-flight across processes. A timed-out wait returns an
// error wrapping ErrLockTimeout; callers treat it as "no lock" and fall
// back to idempotent lock-free behavior.
func (s *Store) LockKey(key string) (func(), error) {
	a := s.addr(key)
	return s.lockFile(string(a[:]) + ".lock")
}

func (s *Store) lockFile(name string) (func(), error) {
	// The span measures how long this process waited for the advisory
	// lock — cross-process contention on a cell shows up here.
	sp := obs.StartLeafSpan("runstore.flock.wait")
	defer sp.End()
	unlock, err := flockPath(filepath.Join(s.dir, "locks", name), s.lockTimeout)
	if errors.Is(err, ErrLockTimeout) {
		// A tripped bound is an operational event worth flying evidence
		// for: some holder is alive but stuck (or the disk is wedged),
		// and this process just chose progress over single-flight.
		s.lockTimeouts.Add(1)
		if obs.Enabled() {
			storeLockTimeouts.Inc()
			obs.NoteEvent("flock-timeout", "runstore.flock.wait",
				name+" after "+s.lockTimeout.String())
		}
	}
	return unlock, err
}

// ---- entry encoding ----

// encodeEntry frames one object file: magic, key length, payload length,
// key, payload, SHA-256 over key+payload.
func encodeEntry(canonicalKey string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(entryMagic) + 12 + len(canonicalKey) + len(payload) + sha256.Size)
	buf.Write(entryMagic[:])
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(canonicalKey)))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	buf.Write(hdr[:])
	buf.WriteString(canonicalKey)
	buf.Write(payload)
	sum := sha256.New()
	sum.Write([]byte(canonicalKey))
	sum.Write(payload)
	buf.Write(sum.Sum(nil))
	return buf.Bytes()
}

var errCorrupt = errors.New("runstore: corrupt entry")

// frameHeader is the length of a frame's magic and key and payload
// lengths.
const frameHeader = len(entryMagic) + 12

// frameLen returns the length of the frame data begins with, or -1 when
// data is shorter than the header. ok is false when no file can hold a
// valid frame with this header: a wrong magic, or lengths past the
// address space.
func frameLen(data []byte) (n int, ok bool) {
	if len(data) < frameHeader {
		return -1, true
	}
	if !bytes.Equal(data[:len(entryMagic)], entryMagic[:]) {
		return 0, false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(data[len(entryMagic):]))
	payloadLen := binary.LittleEndian.Uint64(data[len(entryMagic)+4:])
	const limit = uint64(math.MaxInt - frameHeader - sha256.Size - 1)
	if payloadLen > limit-keyLen {
		return 0, false
	}
	return frameHeader + int(keyLen+payloadLen) + sha256.Size, true
}

// decodeEntry verifies a whole object file's frame and returns a copy of
// its payload. The frame's key must be prefix+key: that guards against
// (astronomically unlikely) SHA-256 address collisions and against
// entries copied between stores.
func decodeEntry(data []byte, prefix, key string) ([]byte, error) {
	if len(data) < frameHeader+sha256.Size || !bytes.Equal(data[:len(entryMagic)], entryMagic[:]) {
		return nil, errCorrupt
	}
	rest := data[len(entryMagic):]
	keyLen := int(binary.LittleEndian.Uint32(rest[0:4]))
	payloadLen := binary.LittleEndian.Uint64(rest[4:12])
	rest = rest[12:]
	if uint64(keyLen) > uint64(len(rest)) || payloadLen > uint64(len(rest)-keyLen) ||
		uint64(len(rest)) != uint64(keyLen)+payloadLen+sha256.Size {
		return nil, errCorrupt
	}
	k := rest[:keyLen]
	payload := rest[keyLen : uint64(keyLen)+payloadLen]
	want := rest[uint64(keyLen)+payloadLen:]
	if sha256.Sum256(rest[:uint64(keyLen)+payloadLen]) != [sha256.Size]byte(want) {
		return nil, errCorrupt
	}
	if len(k) != len(prefix)+len(key) || string(k[:len(prefix)]) != prefix || string(k[len(prefix):]) != key {
		return nil, errCorrupt
	}
	// Copy out: data is the caller's read buffer.
	return bytes.Clone(payload), nil
}
