package main

import (
	"math/rand"

	"repro/internal/experiment"
)

// The generators turn a workload seed into the inputs the program sees.
// Inputs that change the amount of work (sender counts, buffers of the
// packet runs, the packet grid, the explore box and link, the job grid's
// shape) are fixed, so runs with different seeds cost the same; the seed
// picks fluid link parameters (a fluid run takes a fixed number of
// steps), the order of the packet grid, simulator seeds and job
// bandwidths, which change the answers but not the work.

func newRand(seed uint64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*7919 + stream))
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// fluidInputs is one fluid-characterize pass: Table1Empirical with
// table1N senders on a seeded paper link. The explore pass always runs
// on the paper's 20 Mbps reference link with a 100 MSS buffer.
type fluidInputs struct {
	Table1Mbps   float64
	Table1Buffer float64 // MSS
}

const (
	table1N       = 2
	exploreMbps   = 20.0
	exploreBuffer = 100.0
)

func genFluid(seed uint64) fluidInputs {
	r := newRand(seed, 1)
	return fluidInputs{
		Table1Mbps:   pick(r, experiment.PaperBandwidthsMbps),
		Table1Buffer: float64(pick(r, experiment.PaperBuffersMSS)),
	}
}

// packetInputs is one packet-hierarchy pass: the full §5.1 hierarchy
// grid (every sender count, bandwidth and buffer of the paper) plus one
// Table 2 row over the paper's bandwidths with table2N connections per
// cell on a table2Buffer droptail buffer.
type packetInputs struct {
	Seed       uint64    // packet simulator seed
	Bandwidths []float64 // hierarchy bandwidths, in seeded order
}

// packetDuration (simulated seconds per run) keeps a pass near 0.3 s on
// a 2-core machine. table2N and table2Buffer are the middle of the
// paper's sender counts and its larger buffer.
const (
	packetDuration = 5
	table2N        = 3
	table2Buffer   = 100 // MSS
)

func genPacket(seed uint64) packetInputs {
	r := newRand(seed, 2)
	in := packetInputs{
		Seed:       uint64(r.Int63n(1 << 30)),
		Bandwidths: append([]float64(nil), experiment.PaperBandwidthsMbps...),
	}
	r.Shuffle(len(in.Bandwidths), func(i, j int) { in.Bandwidths[i], in.Bandwidths[j] = in.Bandwidths[j], in.Bandwidths[i] })
	return in
}

// Every axiomd job has the same shape; the seed picks the link values.
// A cold job covers jobMbps fresh bandwidths; a warm job covers the
// bandwidths of warmSpan cold jobs.
var jobProtocols = []string{"reno", "aimd:2,0.6", "cubic:0.4,0.8", "raimd:1,0.8,0.01"}

const (
	jobSenders = 2
	jobMbps    = 4
	jobRTTs    = 2
	jobBuffers = 3
	warmSpan   = 10
)

// jobInputs fixes the RTT and buffer axes of every job in a run and the
// stream of never-repeating bandwidths cold jobs draw from.
type jobInputs struct {
	RTTms     []float64
	BufferMSS []float64
	mbpsBase  float64
}

func genJobs(seed uint64) jobInputs {
	r := newRand(seed, 3)
	in := jobInputs{mbpsBase: 10 + 10*r.Float64()}
	for _, i := range r.Perm(10)[:jobRTTs] {
		in.RTTms = append(in.RTTms, float64(20+10*i))
	}
	for _, i := range r.Perm(20)[:jobBuffers] {
		in.BufferMSS = append(in.BufferMSS, float64(10+10*i))
	}
	return in
}

// coldMbps returns the bandwidths of the k-th cold job of a run. They
// never repeat within a run, so every cold cell is new to the store.
func (in jobInputs) coldMbps(k int) []float64 {
	out := make([]float64, jobMbps)
	for i := range out {
		out[i] = in.mbpsBase + float64(k*jobMbps+i)*0.25
	}
	return out
}
