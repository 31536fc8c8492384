package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/serve"
)

// evalMix is one-shot traffic to six N=4 circuits with Zipf(1.3)
// popularity over a four-circuit LRU, so the popularity tail evicts
// circuits and forces rebuilds. One request in four uses the shape's
// JSON endpoint; the rest use TCF1 /v1/eval. Evaluation is a small
// share of each request here, so the workload measures HTTP, the
// codecs, the circuit LRU with rebuilds, queueing and linger.
type evalMix struct {
	pools []*load.Pool
}

// mixShapes in popularity order: rank 0 is the most requested.
var mixShapes = []core.Shape{
	{Op: core.OpCount, N: 4, Alg: "strassen"},
	{Op: core.OpCount, N: 4, Alg: "winograd"},
	{Op: core.OpTrace, N: 4, Tau: 2, Alg: "strassen"},
	{Op: core.OpMatMul, N: 4, Alg: "strassen", EntryBits: 2, Signed: true},
	{Op: core.OpMatMul, N: 4, Alg: "winograd", EntryBits: 2, Signed: true},
	{Op: core.OpMatMul, N: 4, Alg: "naive2", EntryBits: 2, Signed: true},
}

const (
	mixZipfS       = 1.3
	mixMaxCircuits = 4
	mixSamples     = 32 // distinct requests per shape
)

func (w *evalMix) prepare(b *bench) error {
	for i, sh := range mixShapes {
		p, err := load.NewPool(sh, mixSamples, b.subSeed("pool", i))
		if err != nil {
			return err
		}
		w.pools = append(w.pools, p)
	}
	return nil
}

func (w *evalMix) setup(b *bench) (*target, error) {
	srv := serve.New(serve.Config{MaxCircuits: mixMaxCircuits})
	t, err := b.host(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	t.srv = srv
	c := b.setupCall(t)
	for _, p := range w.pools {
		if err := postFrame(c, &p.Samples[0]); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (w *evalMix) lanes(b *bench, _ *target) []issuer {
	out := make([]issuer, b.conns)
	for i := range out {
		z, err := load.NewZipf(b.subSeed("zipf", i), mixZipfS, len(w.pools))
		if err != nil {
			panic(err) // the exponent and rank count are constants
		}
		rng := rand.New(rand.NewSource(b.subSeed("mix", i)))
		out[i] = func(c *call) error {
			p := w.pools[z.Next()]
			sm := &p.Samples[rng.Intn(len(p.Samples))]
			if rng.Intn(4) == 0 {
				return postJSON(c, p, sm)
			}
			return postFrame(c, sm)
		}
	}
	return out
}

// rates: the closed loop reaches about 780/s on two cores; the ladder's
// top passing rung sits near 0.6x, its last rung above saturation.
// Rebuild waits set the tail, and on a 2-vCPU VM it moved by a third to
// a half from run to run at every rate tried (100-300/s), so eval-mix
// is runnable but not listed in BENCHMARK.json.
func (w *evalMix) rates() (float64, []float64, time.Duration) {
	return 200, []float64{150, 300, 450, 1000}, 150 * time.Millisecond
}

func (w *evalMix) layers(b *bench, t *target) error {
	ctx := context.Background()
	weights := load.PMF(mixZipfS, len(w.pools))
	rng := rand.New(rand.NewSource(b.subSeed("layers", 0)))
	var s layerSums
	for i, p := range w.pools {
		bt, err := t.srv.Built(ctx, p.Shape)
		if err != nil {
			return err
		}
		inputs, err := frameInputs(p)
		if err != nil {
			return err
		}
		s.circuit(bt.Circuit(), inputs, weights[i])
		if err := s.assign(bt, rng, weights[i]); err != nil {
			return err
		}
		if err := s.build(p.Shape); err != nil {
			return err
		}
	}
	s.put(b)
	codec, err := frameCodecTime(w.pools, weights)
	if err != nil {
		return err
	}
	b.put("serve.codec_us", us(codec))
	return nil
}

func (w *evalMix) close() {}
