package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"qla/internal/engine"
)

// The serve-run workload: one keep-alive connection sends POST /v1/run.
// 49 in 50 requests replay byte-stable bodies from a hot set primed
// during set-up; the rest are fresh misses of cheap deterministic
// experiments. No Monte Carlo runs inside the measured window, so the
// window isolates decode, canonicalize, cache lookup and encode/write.

// missShare is small because every miss stays in the result cache: at
// one in ten, peak RSS grew with the request count and moved with the
// request rate (34% between two sets of runs of one binary), so a
// faster server would have read as a memory regression. A run still
// sends a few thousand misses, enough for a p99 with ten beyond it.
const missShare = 0.02

// hotSet is the primed bodies with the bytes and hash their priming
// miss returned.
type hotSet struct {
	bodies [][]byte
	want   [][]byte
	hashes []string
}

// hotBodies derives the hot set from the seed: small figure7 runs,
// cycle-interconnect grids and equation2 evaluations.
func hotBodies(e *env) [][]byte {
	rng := rand.New(rand.NewPCG(e.seeded("serve-run/hot"), 2))
	per := 16
	if e.tiny {
		per = 2
	}
	var out [][]byte
	for i := 0; i < per; i++ {
		out = append(out,
			fmt.Appendf(nil, `{"experiment":"figure7","params":{"trials":640,"seed":%d}}`, rng.Uint64()>>20),
			fmt.Appendf(nil, `{"experiment":"cycle-interconnect","params":{"grid":4,"ops":64,"window":16,"seed":%d}}`, rng.Uint64()>>20),
			fmt.Appendf(nil, `{"experiment":"equation2","params":{"p0":%.6g}}`, 1e-4+9e-4*rng.Float64()))
	}
	return out
}

// missStream yields fresh, never-repeating cheap Specs.
type missStream struct {
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

func (m *missStream) next() []byte {
	for {
		m.n++
		var b []byte
		if m.n%2 == 0 {
			b = fmt.Appendf(nil, `{"experiment":"equation2","params":{"p0":%.12g}}`, 1e-5+2e-3*m.rng.Float64())
		} else {
			b = fmt.Appendf(nil, `{"experiment":"cycle-interconnect","params":{"grid":4,"ops":32,"window":8,"seed":%d}}`, m.rng.Uint64()>>12)
		}
		if !m.seen[string(b)] {
			m.seen[string(b)] = true
			return b
		}
	}
}

// prime runs every hot body once (each must be a miss) and keeps the
// bytes later hits must reproduce.
func prime(c *conn, bodies [][]byte) (*hotSet, error) {
	hs := &hotSet{bodies: bodies}
	for _, b := range bodies {
		r, err := c.post("/v1/run", b)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK || r.header.Get("X-Cache") != "miss" {
			return nil, fmt.Errorf("priming %s: status %d X-Cache %q", b, r.status, r.header.Get("X-Cache"))
		}
		hs.want = append(hs.want, r.body)
		hs.hashes = append(hs.hashes, r.header.Get("X-Spec-Hash"))
	}
	return hs, nil
}

type serveRunState struct {
	reps []*replica
	c    *conn
	hot  *hotSet
}

func runServeRun(e *env, o *outcome) error {
	bodies := hotBodies(e)
	st, err := timedSetup(e, o, func(int) (*serveRunState, error) {
		reps, err := startReplicas(1, nil)
		if err != nil {
			return nil, err
		}
		c := newConn(reps[0].url)
		hot, err := prime(c, bodies)
		if err != nil {
			c.close()
			stopReplicas(reps)
			return nil, err
		}
		return &serveRunState{reps, c, hot}, nil
	}, func(s *serveRunState) { s.c.close(); stopReplicas(s.reps) })
	if err != nil {
		return err
	}
	defer stopReplicas(st.reps)
	defer st.c.close()

	// The priming misses must carry the content address the engine
	// computes for the same body.
	for i, b := range st.hot.bodies {
		o.check("serve.spec_hash", specHashOf(b) == st.hot.hashes[i], "priming hash mismatch for %s", b)
	}

	rng := rand.New(rand.NewPCG(e.seeded("serve-run/mix"), 3))
	misses := &missStream{rng: rand.New(rand.NewPCG(e.seeded("serve-run/miss"), 4)), seen: map[string]bool{}}
	type missRec struct {
		body []byte
		hash string
	}
	var (
		hitLat, missLat latencies
		missRecs        []missRec
	)
	before, err := scrapeOf(st.c)
	if err != nil {
		return err
	}
	minOps := 100
	start := time.Now()
	for k := 1; time.Since(start) < e.measure || o.attempted < minOps; k++ {
		isMiss := rng.Float64() < missShare
		var body []byte
		idx := -1
		if isMiss {
			body = misses.next()
		} else {
			idx = rng.IntN(len(st.hot.bodies))
			body = st.hot.bodies[idx]
		}
		root, endRoot := e.tr.begin("op.run_request", k, 0)
		_, endHTTP := e.tr.begin("http.run", k, root)
		t0 := time.Now()
		r, err := st.c.post("/v1/run", body)
		lat := time.Since(t0)
		endHTTP()
		o.attempted++
		if err != nil || r.status != http.StatusOK {
			if err == nil {
				err = fmt.Errorf("POST /v1/run: status %d: %s", r.status, r.body)
			}
			o.fail(err)
			endRoot()
			continue
		}
		_, endCheck := e.tr.begin("check", k, root)
		xc, hash := r.header.Get("X-Cache"), r.header.Get("X-Spec-Hash")
		if isMiss {
			missLat = append(missLat, lat)
			o.check("serve.miss_is_miss", xc == "miss", "fresh body answered X-Cache %q", xc)
			missRecs = append(missRecs, missRec{body, hash})
		} else {
			hitLat = append(hitLat, lat)
			o.check("serve.hit_is_hit", xc == "hit", "hot body answered X-Cache %q", xc)
			o.check("serve.hit_bytes", bytes.Equal(r.body, st.hot.want[idx]), "hit bytes differ from the priming miss for %s", body)
			o.check("serve.spec_hash", hash == st.hot.hashes[idx], "hit X-Spec-Hash %q, want %q", hash, st.hot.hashes[idx])
		}
		endCheck()
		endRoot()
	}
	elapsed := time.Since(start)
	after, err := scrapeOf(st.c)
	if err != nil {
		return err
	}
	// Miss hashes are checked after the window so the client's own
	// hashing does not compete with the server for the CPUs.
	for _, m := range missRecs {
		o.check("serve.spec_hash", specHashOf(m.body) == m.hash, "miss X-Spec-Hash %q wrong for %s", m.hash, m.body)
	}
	serverLayers(delta(before, after), o.layers)

	o.workPerS = float64(o.attempted) / elapsed.Seconds()
	o.opP50MS = hitLat.pct(50)
	o.add("run_rps", o.workPerS, "1/s", o.attempted, "")
	o.add("hit_p50_ms", o.opP50MS, "ms", len(hitLat), "")
	o.add("hit_p99_ms", hitLat.pct(99), "ms", len(hitLat), tailNote(hitLat, 99))
	o.add("miss_p50_ms", missLat.pct(50), "ms", len(missLat), "")
	o.add("miss_p99_ms", missLat.pct(99), "ms", len(missLat), tailNote(missLat, 99))
	return nil
}

// tailNote flags a percentile with fewer than ten samples beyond it.
func tailNote(l latencies, p float64) string {
	if float64(len(l))*(1-p/100) < 10 {
		return fmt.Sprintf("fewer than 10 samples beyond p%g", p)
	}
	return ""
}

// specHashOf is the engine's content address of a JSON body ("" when
// the body does not decode).
func specHashOf(body []byte) string {
	spec, err := engine.DecodeSpec(body)
	if err != nil {
		return ""
	}
	h, err := engine.SpecHash(spec)
	if err != nil {
		return ""
	}
	return h
}

// scrapeOf reads and parses a replica's GET /metrics.
func scrapeOf(c *conn) (scrape, error) {
	r, err := c.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	if r.status != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	return parseScrape(r.body)
}
