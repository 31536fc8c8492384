package main

import (
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/store"
)

// warmRestart is a server restarting onto a filled circuit store: a
// separate prep process writes TCS2 artifacts for two circuits into a
// fresh store directory, and the measured server opens that store
// through serve.Config.Cache. Set-up is the mapped, integrity-verified
// warm start until both circuits have answered; traffic is TCF1 frames
// to the N=8 circuit, evaluated on mmapped arenas. It is the only
// workload that goes through store.
type warmRestart struct {
	dir   string
	pools []*load.Pool // warmShapes order
}

var warmShapes = []core.Shape{
	{Op: core.OpMatMul, N: 8, Alg: "strassen", EntryBits: 2, Signed: true},
	{Op: core.OpMatMul, N: 16, Alg: "strassen"},
}

const (
	prepCommand = "prep-warm"
	poolsFile   = "pools.gob"
	warmSamples = 128 // distinct N=8 requests
)

func (w *warmRestart) prepare(b *bench) error {
	base := filepath.Join(b.outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "warm-")
	if err != nil {
		return err
	}
	w.dir = dir
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, prepCommand, "-dir", dir, "-seed", fmt.Sprint(b.subSeed("warm", 0)))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", prepCommand, err)
	}
	logf("prep: store filled in %.2fs", time.Since(start).Seconds())
	f, err := os.Open(filepath.Join(dir, poolsFile))
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(&w.pools)
}

// prepWarm is the prep process: it builds both circuits, saves them to
// the store in -dir, and writes the request pools with their ground
// truth beside them. It runs in its own process so that its build time
// and memory stay out of the measured server's.
func prepWarm(args []string) int {
	fs := flag.NewFlagSet(prepCommand, flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory to fill")
	seed := fs.Int64("seed", 1, "seed for the request pools")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	if err := fillStore(*dir, *seed); err != nil {
		fmt.Fprintln(os.Stderr, prepCommand+":", err)
		return 1
	}
	return 0
}

func fillStore(dir string, seed int64) error {
	cache, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer cache.Close()
	var pools []*load.Pool
	for i, sh := range warmShapes {
		built, err := core.BuildShape(sh, -1)
		if err != nil {
			return err
		}
		if _, err := cache.Save(built); err != nil {
			return err
		}
		if i == 0 {
			p, err := load.NewPool(sh, warmSamples, seed)
			if err != nil {
				return err
			}
			pools = append(pools, p)
			continue
		}
		// The N=16 circuit takes binary entries; its one request is
		// made here from the circuit just built.
		rng := rand.New(rand.NewSource(seed))
		a, bm := matrix.RandomBinary(rng, sh.N, sh.N, 0.5), matrix.RandomBinary(rng, sh.N, sh.N, 0.5)
		in, err := built.MatMul.Assign(a, bm)
		if err != nil {
			return err
		}
		frame, err := serve.EncodeFrame(sh, in)
		if err != nil {
			return err
		}
		c := built.Circuit()
		vals := c.Eval(in)
		want := make([]bool, len(c.Outputs()))
		for j, o := range c.Outputs() {
			want[j] = vals[o]
		}
		if !built.MatMul.DecodeOutputs(want).Equal(a.Mul(bm)) {
			return fmt.Errorf("%s: circuit product differs from the direct product", sh.Key())
		}
		pools = append(pools, &load.Pool{Shape: sh, Samples: []load.Sample{{Frame: frame, WantBits: want}}})
	}
	f, err := os.Create(filepath.Join(dir, poolsFile))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(pools); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *warmRestart) setup(b *bench) (*target, error) {
	cache, err := store.Open(w.dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cache: cache})
	t, err := b.host(srv.Handler())
	if err != nil {
		srv.Close()
		cache.Close()
		return nil, err
	}
	t.srv, t.cache = srv, cache
	c := b.setupCall(t)
	for _, p := range w.pools {
		if err := postFrame(c, &p.Samples[0]); err != nil {
			t.close()
			return nil, err
		}
	}
	if snap := srv.Snapshot(); snap.DiskHits != int64(len(warmShapes)) || snap.DiskSaves != 0 {
		t.close()
		return nil, fmt.Errorf("warm start: %d disk hits and %d saves, want %d and 0",
			snap.DiskHits, snap.DiskSaves, len(warmShapes))
	}
	return t, nil
}

func (w *warmRestart) lanes(b *bench, _ *target) []issuer {
	p := w.pools[0]
	out := make([]issuer, b.conns)
	for i := range out {
		rng := rand.New(rand.NewSource(b.subSeed("warm-lane", i)))
		out[i] = func(c *call) error {
			return postFrame(c, &p.Samples[rng.Intn(len(p.Samples))])
		}
	}
	return out
}

// rates: the closed loop reaches about 330/s on two cores. Near 150/s a
// rare batch of two (one EvalPlanes pass of about 40 ms against 5 ms for
// a scalar Eval) decides the tail, and at 100/s queueing behind the
// lane's previous request still moved p95 by a third with the host's
// speed, so the nominal rate is 60/s.
func (w *warmRestart) rates() (float64, []float64, time.Duration) {
	return 60, []float64{100, 150, 200, 450}, 100 * time.Millisecond
}

// layers measures the store's warm load of both artifacts, reads the
// measured server's store counters, and replays the N=8 circuit and
// its frames.
func (w *warmRestart) layers(b *bench, t *target) error {
	var loads []float64
	for i := 0; i < 3; i++ {
		cache, err := store.Open(w.dir)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, sh := range warmShapes {
			if _, err := cache.Load(sh); err != nil {
				cache.Close()
				return err
			}
		}
		loads = append(loads, ms(time.Since(start)))
		if err := cache.Close(); err != nil {
			return err
		}
	}
	b.put("store.load_ms", median(loads))
	var artifactMB float64
	for _, sh := range warmShapes {
		st, err := os.Stat(t.cache.Path(sh))
		if err != nil {
			return err
		}
		artifactMB += float64(st.Size()) / (1 << 20)
	}
	b.put("store.artifact_mb", artifactMB)
	if st := t.srv.Snapshot().Store; st != nil {
		b.put("store.mapped", float64(st.Mapped))
		b.put("store.corrupt", float64(st.Corrupt))
	}

	bt, err := t.srv.Built(context.Background(), warmShapes[0])
	if err != nil {
		return err
	}
	inputs, err := frameInputs(w.pools[0])
	if err != nil {
		return err
	}
	var s layerSums
	s.circuit(bt.Circuit(), inputs, 1)
	s.put(b)
	codec, err := frameCodecTime(w.pools[:1], []float64{1})
	if err != nil {
		return err
	}
	b.put("serve.codec_us", us(codec))
	return nil
}

func (w *warmRestart) close() {
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // a leftover temp store only costs disk under .bench_build
	}
}
