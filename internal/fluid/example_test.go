package fluid_test

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/protocol"
)

// Example simulates the paper's basic scenario: two TCP Reno senders on a
// single bottleneck, converging to a fair share from a skewed start.
func Example() {
	cfg := fluid.Config{
		Bandwidth: fluid.MbpsToMSSps(20), // B in MSS/s
		PropDelay: 0.021,                 // Θ: C = B·2Θ = 70 MSS
		Buffer:    100,                   // τ
	}
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, []float64{170, 1})
	if err != nil {
		panic(err)
	}
	l, err := fluid.New(cfg, senders...)
	if err != nil {
		panic(err)
	}
	// Sum each sender's window over the last quarter of 4000 steps.
	var a, b float64
	for s := 0; s < 4000; s++ {
		res := l.Step()
		if s >= 3000 {
			a += res.Windows[0]
			b += res.Windows[1]
		}
	}
	fmt.Printf("fair split: %v\n", a == b)
	// Output:
	// fair split: true
}

// ExampleConfig_Capacity shows the paper's capacity definition C = B·2Θ.
func ExampleConfig_Capacity() {
	cfg := fluid.Config{Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021}
	fmt.Printf("%.1f MSS\n", cfg.Capacity())
	// Output:
	// 70.0 MSS
}
