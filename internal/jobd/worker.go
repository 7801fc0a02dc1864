package jobd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// WorkerEnv marks a process as a worker shard. The daemon (and the test
// binary) re-exec themselves with it set; main checks it before flag
// parsing and hands stdin/stdout to WorkerMain.
const WorkerEnv = "REPRO_JOBD_WORKER"

// holdEnv is the chaos hook for deadline tests: "index:ms:attempts"
// makes a worker stall ms milliseconds before computing the named cell
// on its first `attempts` dispatches. Attempts after that run at full
// speed, so a per-cell deadline expiry is followed by a clean retry and
// the job still completes with bit-identical scores.
const holdEnv = "REPRO_JOBD_HOLD"

type holdSpec struct {
	index    int
	delay    time.Duration
	attempts int
}

func parseHold(s string) *holdSpec {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil
	}
	idx, err1 := strconv.Atoi(parts[0])
	ms, err2 := strconv.Atoi(parts[1])
	n, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil
	}
	return &holdSpec{index: idx, delay: time.Duration(ms) * time.Millisecond, attempts: n}
}

func (h *holdSpec) maybeStall(index, attempt int) {
	if h != nil && index == h.index && attempt < h.attempts {
		time.Sleep(h.delay)
	}
}

// wireTask and wireResult are the shard protocol: the parent writes one
// task line to the child's stdin, the child answers with exactly one
// result line on stdout. IDs let the parent discard stale answers from
// a child it already gave up on.
type wireTask struct {
	ID      int64 `json:"id"`
	Attempt int   `json:"attempt"`
	Cell    Cell  `json:"cell"`
}

type wireResult struct {
	ID     int64      `json:"id"`
	Scores *ScoreBits `json:"scores,omitempty"`
	Err    string     `json:"err,omitempty"`
}

// WorkerMain is the worker-shard entry point: an NDJSON request/reply
// loop over in/out that computes one cell per task. It returns on EOF
// (parent closed stdin — a normal shutdown), on a line that is not a
// task frame (the stream is broken) and on any encode error (parent
// died mid-stream). Workers are deliberately storeless: the parent owns
// the persistent tier and dedupes before dispatching, so a worker is a
// pure deterministic cell evaluator whose only state is its in-memory
// run session.
func WorkerMain(in io.Reader, out io.Writer) error {
	hold := parseHold(os.Getenv(holdEnv))
	sess := metrics.NewSession()
	sess.SetStore(nil)
	r := bufio.NewReader(in)
	enc := json.NewEncoder(out)
	for {
		line, readErr := r.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return fmt.Errorf("jobd: worker read: %w", readErr)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			t, reject, err := decodeTask(line)
			if err != nil {
				return err
			}
			res := reject
			if res == nil {
				hold.maybeStall(t.Cell.Index, t.Attempt)
				res = &wireResult{ID: t.ID}
				if s, err := computeCell(t.Cell, sess); err != nil {
					res.Err = err.Error()
				} else {
					sb := EncodeScores(s)
					res.Scores = &sb
				}
			}
			if err := enc.Encode(res); err != nil {
				return fmt.Errorf("jobd: worker encode: %w", err)
			}
		}
		if readErr == io.EOF {
			return nil
		}
	}
}

// decodeTask decodes and checks one NDJSON task line. A line that is not
// a task frame returns err, and the worker exits. A frame whose cell
// breaks a Cell rule returns the task with reject set: the error reply
// the worker sends in place of scores, so one bad cell never kills a
// shard. Otherwise the task is ready to compute.
func decodeTask(line []byte) (t wireTask, reject *wireResult, err error) {
	if err := json.Unmarshal(line, &t); err != nil {
		return wireTask{}, nil, fmt.Errorf("jobd: worker decode: %w", err)
	}
	if err := t.Cell.validate(); err != nil {
		return t, &wireResult{ID: t.ID, Err: "jobd: cell: " + err.Error()}, nil
	}
	return t, nil, nil
}

// computeCell checks and scores one cell: validate it, build the link
// config, parse the protocol, run the eight-metric characterization.
// Everything is deterministic in the cell's fields, which is what lets
// crashed or timed-out cells retry anywhere and reproduce the same bits.
func computeCell(c Cell, sess *metrics.Session) (metrics.Scores, error) {
	if err := c.validate(); err != nil {
		return metrics.Scores{}, fmt.Errorf("jobd: cell: %w", err)
	}
	p, err := protocol.Parse(c.Proto)
	if err != nil {
		return metrics.Scores{}, err
	}
	var sched *chaos.Schedule
	if len(c.Chaos) > 0 {
		if sched, err = chaos.Parse(c.Chaos); err != nil {
			return metrics.Scores{}, err
		}
	}
	cfg := fluid.Config{
		Bandwidth: fluid.MbpsToMSSps(c.Mbps),
		PropDelay: c.RTTms / 2000, // one-way Θ from a round-trip in ms
		Buffer:    c.BufferMSS,
	}
	return metrics.Characterize(cfg, p, c.Senders, metrics.Options{
		Steps:     c.Steps,
		TailFrac:  c.TailFrac,
		Chaos:     sched,
		ChaosSeed: c.ChaosSeed,
		Session:   sess,
	})
}
