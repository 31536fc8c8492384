package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// lane is one connection's request stream. A lane sends one request at
// a time, so a workload's per-lane state (a tenant's shadow graph) is
// only ever touched by its own lane.
type lane struct {
	client *http.Client
	url    string
	issue  issuer
}

func (b *bench) bind(issuers []issuer, t *target) []*lane {
	lanes := make([]*lane, len(issuers))
	for i, is := range issuers {
		lanes[i] = &lane{client: t.clients[i], url: t.url, issue: is}
	}
	return lanes
}

// phase is the outcome of one traffic phase.
type phase struct {
	ok, failed int
	unsent     int             // open loop: scheduled but never sent before the cut-off
	lat        []time.Duration // open loop: scheduled send to verified reply
	lag        []time.Duration // open loop: scheduled send to actual send
	elapsed    time.Duration   // phase start to last reply, summed over merged phases
}

func (p phase) rps() float64 { return float64(p.ok) / p.elapsed.Seconds() }

func (p phase) String() string {
	s := fmt.Sprintf("ok=%d failed=%d in %.3fs (%.1f/s)", p.ok, p.failed, p.elapsed.Seconds(), p.rps())
	if len(p.lat) > 0 {
		s += fmt.Sprintf(" p50=%.3fms p99=%.3fms lag_p99=%.3fms unsent=%d",
			ms(quantile(p.lat, 0.5)), ms(quantile(p.lat, 0.99)), ms(quantile(p.lag, 0.99)), p.unsent)
	}
	return s
}

func (p *phase) merge(o phase) {
	p.ok += o.ok
	p.failed += o.failed
	p.unsent += o.unsent
	p.lat = append(p.lat, o.lat...)
	p.lag = append(p.lag, o.lag...)
	p.elapsed += o.elapsed
}

// send issues the lane's next request. It returns whether the reply
// was verified, and an error only for a wrong answer.
func (b *bench) send(l *lane, traced bool) (bool, error) {
	c := call{tr: b.tr, client: l.client, url: l.url}
	var start int64
	if traced {
		c.rid = b.rid.Add(1)
		start = b.tr.now()
	}
	b.attempted.Add(1)
	err := l.issue(&c)
	if traced {
		b.tr.record(span{Name: c.kind, ID: c.rid * 4, Req: c.rid, Start: start, End: b.tr.now()})
	}
	switch {
	case err == nil:
		return true, nil
	case isWrong(err):
		return false, err
	}
	b.failed.Add(1)
	if b.failures.Add(1) <= 5 {
		logf("request failed: %v", err)
	}
	return false, nil
}

// lanesDo runs fn once per lane concurrently and merges the phases.
// The first wrong answer stops every lane.
func (b *bench) lanesDo(lanes []*lane, fn func(i int, l *lane, stop *atomic.Bool) (phase, error)) (phase, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total phase
		first error
		stop  atomic.Bool
	)
	start := time.Now()
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := fn(i, l, &stop)
			mu.Lock()
			defer mu.Unlock()
			total.merge(p)
			if err != nil && first == nil {
				first = err
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total, first
}

// closedLoop keeps every lane busy back to back for d: each lane sends
// its next request as soon as the previous reply is checked.
func (b *bench) closedLoop(lanes []*lane, d time.Duration, traced bool) (phase, error) {
	end := time.Now().Add(d)
	return b.lanesDo(lanes, func(_ int, l *lane, stop *atomic.Bool) (phase, error) {
		var p phase
		for time.Now().Before(end) && !stop.Load() {
			ok, err := b.send(l, traced)
			if err != nil {
				return p, err
			}
			if ok {
				p.ok++
			} else {
				p.failed++
			}
		}
		return p, nil
	})
}

// openLoop sends rate·d requests over d, split evenly over the lanes.
// Each lane's send instants are a seeded Poisson process conditioned on
// its count (sorted uniform instants), so the sample size is fixed.
// Latency runs from the scheduled instant, so a stall also charges the
// requests queued behind it; the lag from scheduled to actual send is
// recorded too. Requests still unsent slack after the window are
// abandoned and counted as unsent.
func (b *bench) openLoop(lanes []*lane, rate float64, d, slack time.Duration, seed int64, traced bool) (phase, error) {
	per := int(rate * d.Seconds() / float64(len(lanes)))
	start := time.Now()
	cutoff := start.Add(d + slack)
	return b.lanesDo(lanes, func(i int, l *lane, stop *atomic.Bool) (phase, error) {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		at := make([]time.Duration, per)
		for j := range at {
			at[j] = time.Duration(rng.Int63n(int64(d)))
		}
		sort.Slice(at, func(x, y int) bool { return at[x] < at[y] })
		p := phase{lat: make([]time.Duration, 0, per), lag: make([]time.Duration, 0, per)}
		for j, off := range at {
			if stop.Load() {
				break
			}
			due := start.Add(off)
			if time.Now().After(cutoff) {
				p.unsent = per - j
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			ok, err := b.send(l, traced)
			if err != nil {
				return p, err
			}
			done := time.Now()
			p.lag = append(p.lag, sent.Sub(due))
			if ok {
				p.ok++
				p.lat = append(p.lat, done.Sub(due))
			} else {
				p.failed++
			}
		}
		return p, nil
	})
}

// ridHeader carries a traced request's id to the handler span.
const ridHeader = "X-Perfbench-Request"

// do sends one HTTP request over the call's connection and reads the
// whole reply. A traced call records the round trip as its "http" span.
// A call sends at most one HTTP request. A non-200 reply is a
// *refusal.
func (c *call) do(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	var start int64
	if c.rid != 0 {
		req.Header.Set(ridHeader, strconv.FormatUint(c.rid, 10))
		start = c.tr.now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.rid != 0 {
		c.tr.record(span{Name: "http", ID: c.rid*4 + 1, Parent: c.rid * 4, Req: c.rid, Start: start, End: c.tr.now()})
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &refusal{path: path, status: resp.StatusCode, body: string(data)}
	}
	return data, nil
}
