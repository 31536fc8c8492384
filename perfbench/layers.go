package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// The per-layer replays below call each layer's public functions on
// the workload's own circuits and inputs, outside the serving path.

// meanTime calls fn at least three times and until budget has passed,
// and returns the mean wall time per call.
func meanTime(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// layerSums accumulates the circuit and core replays of a workload's
// circuits. Times are weighted by each circuit's share of the traffic;
// gates and builds are summed over the distinct circuits.
type layerSums struct {
	gates                         float64
	evalUS, b2US, b64US, energyUS float64 // weighted
	assignUS                      float64 // weighted
	buildS, buildMB, weights      float64
}

// circuit replays one circuit through a fresh single-worker Evaluator:
// a scalar Eval, EvalPlanes at batch 2 and 64, and EnergyBatch over the
// batch-64 planes. inputs are the workload's own assignments.
func (s *layerSums) circuit(c *circuit.Circuit, inputs [][]bool, weight float64) {
	const budget = 80 * time.Millisecond
	ev := circuit.NewEvaluator(c, 1)
	defer ev.Close()
	rows := make([][]bool, 64)
	for i := range rows {
		rows[i] = inputs[i%len(inputs)]
	}
	k := 0
	eval := meanTime(budget, func() { ev.Eval(inputs[k%len(inputs)]); k++ })
	p2 := circuit.PackBools(rows[:2])
	b2 := meanTime(budget, func() { ev.EvalPlanes(p2) })
	p64 := circuit.PackBools(rows)
	b64 := meanTime(budget, func() { ev.EvalPlanes(p64) })
	planes := ev.EvalPlanes(p64)
	energy := meanTime(budget, func() { c.EnergyBatch(planes) })

	s.gates += float64(c.Size())
	s.evalUS += weight * us(eval)
	s.b2US += weight * us(b2)
	s.b64US += weight * us(b64)
	s.energyUS += weight * us(energy)
	s.weights += weight
}

// build times core.BuildShape and the bytes it allocates.
func (s *layerSums) build(sh core.Shape) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	builds := 0
	d := meanTime(100*time.Millisecond, func() {
		builds++
		if _, e := core.BuildShape(sh, -1); e != nil {
			err = e
		}
	})
	runtime.ReadMemStats(&m1)
	s.buildS += d.Seconds()
	s.buildMB += float64(m1.TotalAlloc-m0.TotalAlloc) / float64(builds) / (1 << 20)
	return err
}

// assign times the shape's input encoding (the Assign call the JSON and
// graph paths make per request) on a random input of the shape.
func (s *layerSums) assign(bt *core.Built, rng *rand.Rand, weight float64) error {
	n := bt.Shape.N
	var fn func() error
	switch {
	case bt.MatMul != nil:
		a, b := matrix.Random(rng, n, n, -2, 1), matrix.Random(rng, n, n, -2, 1)
		if bt.Shape.EntryBits < 2 {
			a, b = matrix.RandomBinary(rng, n, n, 0.5), matrix.RandomBinary(rng, n, n, 0.5)
		}
		fn = func() error { _, err := bt.MatMul.Assign(a, b); return err }
	case bt.Trace != nil:
		adj := graph.ErdosRenyi(rng, n, 0.5).Adjacency()
		fn = func() error { _, err := bt.Trace.Assign(adj); return err }
	default:
		adj := graph.ErdosRenyi(rng, n, 0.5).Adjacency()
		fn = func() error { _, err := bt.Count.Assign(adj); return err }
	}
	var err error
	d := meanTime(30*time.Millisecond, func() {
		if e := fn(); e != nil {
			err = e
		}
	})
	s.assignUS += weight * us(d)
	return err
}

func (s *layerSums) put(b *bench) {
	b.put("circuit.gates", s.gates)
	b.put("circuit.eval_us", s.evalUS/s.weights)
	b.put("circuit.planes_b2_us", s.b2US/s.weights)
	b.put("circuit.planes_b64_us", s.b64US/s.weights)
	b.put("circuit.energy_b64_us", s.energyUS/s.weights)
	if s.buildS > 0 {
		b.put("core.build_s", s.buildS)
		b.put("core.build_alloc_mb", s.buildMB)
	}
	if s.assignUS > 0 {
		b.put("core.assign_us", s.assignUS/s.weights)
	}
}

// frameInputs decodes the circuit input bits of a pool's TCF1 frames.
func frameInputs(p *load.Pool) ([][]bool, error) {
	inputs := make([][]bool, len(p.Samples))
	for i := range p.Samples {
		_, in, err := serve.DecodeFrame(p.Samples[i].Frame)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	return inputs, nil
}

// frameCodecTime is the mean time to decode one of the pools' request
// frames and encode its reply, as the /v1/eval handler does.
func frameCodecTime(pools []*load.Pool, weights []float64) (time.Duration, error) {
	var total, wsum float64
	for i, p := range pools {
		k := 0
		var err error
		d := meanTime(30*time.Millisecond, func() {
			sm := &p.Samples[k%len(p.Samples)]
			k++
			if _, _, e := serve.DecodeFrame(sm.Frame); e != nil {
				err = e
			}
			serve.EncodeFrameResponse(sm.WantBits)
		})
		if err != nil {
			return 0, err
		}
		total += weights[i] * float64(d)
		wsum += weights[i]
	}
	return time.Duration(total / wsum), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
