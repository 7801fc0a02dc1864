// Package storeflags is the CLI glue for the persistent run store: every
// cmd/* tool mounts one flag set and gets a disk-backed second tier under
// its metric sessions, with a greppable stats line for CI. Because every
// simulated run is stored as it finishes, rerunning an interrupted
// command resimulates only the runs it never finished.
//
//	-store dir             store directory (default: user cache dir)
//	-nostore               disable the persistent store for this run
//	-store-max-bytes n     size budget before LRU eviction (0 = default 1 GiB)
//	-store-lock-timeout d  bound per-key flock waits (0 = wait forever)
//	-store-stats           print cache-tier counters on stderr at exit
//
// The store is on by default: simulation runs are deterministic and
// content-addressed (including a hash of the simulation source), so
// persistence is always safe — it changes cost, never scores.
package storeflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// Flags holds the parsed persistent-store flags. Mount with Register
// before flag.Parse, then call Apply once parsing is done.
type Flags struct {
	Dir         string
	NoStore     bool
	MaxBytes    int64
	LockTimeout time.Duration
	Stats       bool
}

// Register mounts the store flags on fs (typically flag.CommandLine) and
// returns the holder to Apply after parsing.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Dir, "store", "", "persistent run store directory (default: OS user cache dir)")
	fs.BoolVar(&f.NoStore, "nostore", false, "disable the persistent run store for this invocation")
	fs.Int64Var(&f.MaxBytes, "store-max-bytes", 0, "run store size budget in bytes before LRU eviction (0 = 1 GiB)")
	fs.DurationVar(&f.LockTimeout, "store-lock-timeout", 0, "max wait for a per-key store lock before degrading to lock-free simulation (0 = wait forever)")
	fs.BoolVar(&f.Stats, "store-stats", false, "print run-store and session counters on stderr at exit")
	return f
}

// Apply opens the store and installs it process-wide: metric sessions
// (including the private ones experiments create) gain a disk tier, the
// one place finished runs are looked up. It returns a report func to run
// at tool exit — with -store-stats it prints the
// counters line CI greps for (`simulated=0` on a warm pass). A store
// that cannot open (no writable cache dir, binary running away from its
// source tree) degrades to a warning: the tool runs storeless rather
// than failing.
func (f *Flags) Apply(tool string) (report func()) {
	var st *runstore.Store
	if !f.NoStore {
		var err error
		st, err = runstore.Open(f.Dir, runstore.Options{MaxBytes: f.MaxBytes, LockTimeout: f.LockTimeout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: persistent run store disabled: %v\n", tool, err)
		} else {
			metrics.SetDefaultStore(st)
		}
	}
	// Register the cache tiers as run-record stat groups. The record's
	// Finish polls these, so cold-vs-warm behavior lands in
	// runrecord.json (and /snapshot) without -store-stats.
	obs.RegisterStatsSource("run_cache", func() map[string]float64 {
		t := metrics.TotalStats()
		return map[string]float64{
			"simulated":       float64(t.Simulated()),
			"mem_hits":        float64(t.Hits),
			"disk_hits":       float64(t.DiskHits),
			"misses":          float64(t.Misses),
			"uncacheable":     float64(t.Uncacheable),
			"steps_simulated": float64(t.StepsSimulated),
			"steps_saved":     float64(t.StepsSaved),
		}
	})
	if st != nil {
		obs.RegisterStatsSource("run_store", func() map[string]float64 {
			s := st.Stats()
			return map[string]float64{
				"hits":          float64(s.Hits),
				"misses":        float64(s.Misses),
				"puts":          float64(s.Puts),
				"evictions":     float64(s.Evictions),
				"corrupt":       float64(s.Corrupt),
				"lock_timeouts": float64(s.LockTimeouts),
				"bytes":         float64(s.Bytes),
			}
		})
	}
	return func() {
		if f.Stats {
			WriteStats(os.Stderr, tool, st)
		}
	}
}

// WriteStats prints the process-wide session counters and, when a store
// is attached, its tier counters. The leading `simulated=` field is the
// CI contract: a warm run over an unchanged source tree reports
// simulated=0.
func WriteStats(w io.Writer, tool string, st *runstore.Store) {
	t := metrics.TotalStats()
	fmt.Fprintf(w, "%s: run cache: simulated=%d disk_hits=%d mem_hits=%d uncacheable=%d steps_simulated=%d steps_saved=%d\n",
		tool, t.Simulated(), t.DiskHits, t.Hits, t.Uncacheable, t.StepsSimulated, t.StepsSaved)
	if st == nil {
		fmt.Fprintf(w, "%s: run store: disabled\n", tool)
		return
	}
	s := st.Stats()
	fmt.Fprintf(w, "%s: run store: hits=%d misses=%d puts=%d evictions=%d corrupt=%d bytes=%d dir=%s\n",
		tool, s.Hits, s.Misses, s.Puts, s.Evictions, s.Corrupt, s.Bytes, st.Dir())
}
