package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/stream"
)

// graphStream is per-tenant triangle screening: 64 tenant sessions on
// the N=16 count circuit, sending TCG1 /v1/graph frames in fixed
// shares — 60% 8-op edge updates with no screen, 30% an update plus a
// screen with energy accounting, 10% a screen alone with energy — and
// a periodic GET /v1/stats scrape. Evaluation dominates each screen,
// and it is the only workload that mutates state beside its reads.
// Every screened reply is checked against the tenant's shadow bitset
// recount (load.GraphStream).
type graphStream struct {
	tenants []*tenant
}

// tenant is one session's client side. Only its own lane touches it.
type tenant struct {
	gs      *load.GraphStream
	version uint64 // update batches sent
	broken  bool   // an update failed, so the shadow may no longer match
}

const (
	gsTenants     = 64
	gsN           = 16
	gsTau         = 3
	gsOps         = 8  // edge ops per update
	gsScrapeEvery = 50 // every 50th request of a lane scrapes /v1/stats
	gsRounds      = 4  // update-sweep-screen rounds of the traced replay
)

var gsShape = core.Shape{Op: core.OpCount, N: gsN, Alg: "strassen"}

var errBroken = errors.New("tenant skipped: an earlier update failed")

func (w *graphStream) prepare(*bench) error { return nil }

func (w *graphStream) setup(b *bench) (*target, error) {
	srv := serve.New(serve.Config{})
	mgr := stream.NewManager(stream.Config{Server: srv, MaxSessions: 4 * gsTenants, MaxN: gsN})
	t, err := b.host(stream.Mux(srv, mgr))
	if err != nil {
		mgr.Close()
		srv.Close()
		return nil, err
	}
	t.srv, t.mgr = srv, mgr
	c := b.setupCall(t)
	w.tenants = w.tenants[:0]
	for i := 0; i < gsTenants; i++ {
		gs := load.NewGraphStream(fmt.Sprintf("tenant-%02d", i), gsN, gsTau, b.subSeed("tenant", i))
		gs.Energy = true
		resp, err := postGraph(c, gs.CreateRequest())
		if err == nil && (resp.Version != 0 || resp.Edges != 0) {
			err = wrongf("create %s: version %d edges %d", gs.Tenant, resp.Version, resp.Edges)
		}
		if err != nil {
			t.close()
			return nil, err
		}
		w.tenants = append(w.tenants, &tenant{gs: gs})
	}
	// The first verified screen; an empty graph fires no gates, so it
	// screens a first update.
	if err := updateScreen(c, w.tenants[0]); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// write sends an edge update without a screen.
func write(c *call, tn *tenant) error {
	req := tn.gs.NextUpdate(gsOps)
	req.Screen, req.Energy = false, false
	tn.version++
	resp, err := postGraph(c, req)
	if err != nil {
		tn.broken = true
		return err
	}
	if edges := tn.gs.Graph().Edges(); resp.Screened || resp.Version != tn.version || resp.Edges != edges {
		return wrongf("update %s: screened=%v v%d edges %d, want v%d edges %d",
			tn.gs.Tenant, resp.Screened, resp.Version, resp.Edges, tn.version, edges)
	}
	return nil
}

// updateScreen sends an edge update that is screened with energy.
func updateScreen(c *call, tn *tenant) error {
	req := tn.gs.NextUpdate(gsOps)
	tn.version++
	resp, err := postGraph(c, req)
	if err != nil {
		tn.broken = true
		return err
	}
	return checkScreen(tn, resp)
}

// screen re-screens the tenant's graph with energy.
func screen(c *call, tn *tenant) error {
	resp, err := postGraph(c, stream.GraphRequest{Op: stream.OpScreen, Tenant: tn.gs.Tenant, Energy: true})
	if err != nil {
		return err
	}
	return checkScreen(tn, resp)
}

// checkScreen checks a screened reply against the tenant's shadow
// recount. It is load.GraphStream.Check without its demand that some
// gate fired: a graph with few edges can fire none.
func checkScreen(tn *tenant, resp stream.GraphResponse) error {
	want, edges := tn.gs.WantCount(), tn.gs.Graph().Edges()
	if !resp.Screened || !resp.HasEnergy || resp.Count != want || resp.Edges != edges ||
		resp.Version != tn.version || resp.Decision != (want >= gsTau) {
		return wrongf("screen %s: %+v, want %d triangles, %d edges at v%d", tn.gs.Tenant, resp, want, edges, tn.version)
	}
	return nil
}

// scrape reads /v1/stats and checks that it reports every session.
func scrape(c *call) error {
	c.kind = "stats"
	body, err := c.do(http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return err
	}
	var st struct {
		Graph stream.Stats `json:"graph"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return wrongf("/v1/stats: %v", err)
	}
	if st.Graph.Sessions != gsTenants {
		return wrongf("/v1/stats: %d sessions, want %d", st.Graph.Sessions, gsTenants)
	}
	return nil
}

// lanes splits the tenants over the connections, so each tenant's
// updates stay in order.
func (w *graphStream) lanes(b *bench, _ *target) []issuer {
	out := make([]issuer, b.conns)
	for i := range out {
		var mine []*tenant
		for j, tn := range w.tenants {
			if j%b.conns == i {
				mine = append(mine, tn)
			}
		}
		rng := rand.New(rand.NewSource(b.subSeed("graph", i)))
		n := 0
		out[i] = func(c *call) error {
			n++
			if n%gsScrapeEvery == 0 || len(mine) == 0 {
				return scrape(c)
			}
			tn := mine[rng.Intn(len(mine))]
			kind := rng.Intn(10)
			switch {
			case tn.broken:
				return errBroken
			case kind < 6:
				return write(c, tn)
			case kind < 9:
				return updateScreen(c, tn)
			}
			return screen(c, tn)
		}
	}
	return out
}

// rates: the closed loop reaches about 370/s on two cores. The nominal
// rate is near half of that; much lower, fewer writes queue behind
// screens and p50 flips between the write and the screen mode from run
// to run.
func (w *graphStream) rates() (float64, []float64, time.Duration) {
	return 170, []float64{80, 150, 220, 500}, 250 * time.Millisecond
}

// layers runs the in-process stream replay, then the circuit, core and
// codec replays on the sweep tenants' graphs.
//
// The stream replay first sweeps what the HTTP writes left dirty, then
// runs fixed rounds on 64 fresh sessions: an 8-op Manager.Update on
// each, a Manager.ScreenDirty sweep over all 64, and a Manager.Screen
// on every fourth. The fresh sessions' inputs depend only on the seed,
// so their screen and energy counts repeat exactly. Every sweep result
// is checked against the shadow recount; the first round's sweep
// energies against a scalar Eval of the same frozen graphs, and every
// screen's energy against its sweep's.
func (w *graphStream) layers(b *bench, t *target) error {
	ctx := context.Background()
	m := t.mgr
	bt, err := t.srv.Built(ctx, gsShape)
	if err != nil {
		return err
	}
	var sweeps []time.Duration
	var swept int
	var sweptFor time.Duration
	sweep := func(byName map[string]*tenant) (map[string]int64, error) {
		start := time.Now()
		res, err := m.ScreenDirty(ctx, true)
		sweeps = append(sweeps, time.Since(start))
		swept += len(res)
		sweptFor += time.Since(start)
		if err != nil {
			return nil, err
		}
		energy := map[string]int64{}
		for _, r := range res {
			tn := byName[r.Tenant]
			if tn == nil || tn.broken {
				continue
			}
			if want := tn.gs.WantCount(); r.Count != want || r.Version != tn.version {
				return nil, wrongf("sweep %s: %d triangles at v%d, want %d at v%d", r.Tenant, r.Count, r.Version, want, tn.version)
			}
			energy[r.Tenant] = r.Energy
		}
		return energy, nil
	}
	if _, err := sweep(byTenant(w.tenants)); err != nil {
		return err
	}

	fresh := make([]*tenant, gsTenants)
	for i := range fresh {
		gs := load.NewGraphStream(fmt.Sprintf("sweep-%02d", i), gsN, gsTau, b.subSeed("sweep", i))
		if _, err := m.Create(ctx, gs.Tenant, gsN, gsTau); err != nil {
			return err
		}
		fresh[i] = &tenant{gs: gs}
	}
	byName := byTenant(fresh)
	before := m.Stats()
	var updates, screens []time.Duration
	for r := 0; r < gsRounds; r++ {
		for _, tn := range fresh {
			req := tn.gs.NextUpdate(gsOps)
			tn.version++
			start := time.Now()
			res, err := m.Update(ctx, tn.gs.Tenant, req.Ops, false, false)
			updates = append(updates, time.Since(start))
			if err != nil {
				return err
			}
			if res.Version != tn.version {
				return wrongf("update %s: v%d, want v%d", tn.gs.Tenant, res.Version, tn.version)
			}
		}
		var scalar map[string]int64
		if r == 0 {
			scalar = scalarEnergies(bt, fresh)
		}
		energy, err := sweep(byName)
		if err != nil {
			return err
		}
		if len(energy) != gsTenants {
			return wrongf("sweep screened %d of %d dirty sessions", len(energy), gsTenants)
		}
		for name, want := range scalar {
			if energy[name] != want {
				return wrongf("sweep %s: energy %d, scalar evaluation fires %d", name, energy[name], want)
			}
		}
		for j := 0; j < gsTenants; j += 4 {
			tn := fresh[j]
			start := time.Now()
			res, err := m.Screen(ctx, tn.gs.Tenant, true)
			screens = append(screens, time.Since(start))
			if err != nil {
				return err
			}
			if want := tn.gs.WantCount(); res.Count != want || res.Energy != energy[tn.gs.Tenant] {
				return wrongf("screen %s: %d triangles energy %d, want %d energy %d",
					tn.gs.Tenant, res.Count, res.Energy, want, energy[tn.gs.Tenant])
			}
		}
	}
	after := m.Stats()
	b.put("stream.update_us", us(meanDur(updates)))
	b.put("stream.screen_us", us(meanDur(screens)))
	b.put("stream.sweep_ms", ms(meanDur(sweeps)))
	b.put("stream.sweep_tenants_per_s", float64(swept)/sweptFor.Seconds())
	b.put("stream.screens", float64(after.Screens-before.Screens))
	b.put("stream.energy_gates", float64(after.EnergyGates-before.EnergyGates))

	inputs := make([][]bool, len(fresh))
	frames := make([][]byte, len(fresh))
	for i, tn := range fresh {
		if inputs[i], err = bt.Count.Assign(tn.gs.Graph().Matrix()); err != nil {
			return err
		}
		if frames[i], err = stream.EncodeGraphRequest(tn.gs.NextUpdate(gsOps)); err != nil {
			return err
		}
		if err := m.CloseTenant(tn.gs.Tenant); err != nil {
			return err
		}
	}
	var s layerSums
	s.circuit(bt.Circuit(), inputs, 1)
	if err := s.assign(bt, rand.New(rand.NewSource(b.subSeed("layers", 0))), 1); err != nil {
		return err
	}
	if err := s.build(gsShape); err != nil {
		return err
	}
	s.put(b)

	reply := stream.GraphResponse{Screened: true, HasEnergy: true, Version: 9, Edges: 40, Count: 12, Energy: 150000}
	k := 0
	codec := meanTime(30*time.Millisecond, func() {
		if _, e := stream.DecodeGraphRequest(frames[k%len(frames)]); e != nil {
			err = e
		}
		stream.EncodeGraphResponse(reply)
		k++
	})
	b.put("serve.codec_us", us(codec))
	return err
}

func byTenant(ts []*tenant) map[string]*tenant {
	m := make(map[string]*tenant, len(ts))
	for _, tn := range ts {
		m[tn.gs.Tenant] = tn
	}
	return m
}

// scalarEnergies is the firing-gate count of a scalar Circuit.Eval on
// each tenant's current graph: the oracle for the batched sweep.
func scalarEnergies(bt *core.Built, ts []*tenant) map[string]int64 {
	c := bt.Circuit()
	out := make(map[string]int64, len(ts))
	for _, tn := range ts {
		in, err := bt.Count.Assign(tn.gs.Graph().Matrix())
		if err != nil {
			panic(err) // a shadow graph always fits its own circuit
		}
		out[tn.gs.Tenant] = c.Energy(c.Eval(in))
	}
	return out
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func (w *graphStream) close() {}
