package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/pocd/journal"
	"github.com/public-option/poc/internal/pocd/ratelimit"
	"github.com/public-option/poc/internal/pocd/server"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/traffic"
)

// deploySpec and buildDeployment mirror cmd/pocd: the journal header
// carries the spec, and recovery rebuilds the deployment from it.
type deploySpec struct {
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Constraint int     `json:"constraint"`
	Workers    int     `json:"workers"`
}

func buildDeployment(raw []byte) (*core.POC, *obs.Registry, error) {
	var spec deploySpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("bad deploy spec %q: %w", raw, err)
	}
	reg := obs.New()
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: spec.Scale, Seed: spec.Seed, Workers: spec.Workers, Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	op, err := s.NewPOC(provision.Constraint(spec.Constraint))
	if err != nil {
		return nil, nil, err
	}
	for _, b := range s.Bids {
		if err := op.SubmitBid(b); err != nil {
			return nil, nil, err
		}
	}
	if err := op.AddVirtualLinks(s.Virtual); err != nil {
		return nil, nil, err
	}
	if _, err := op.RunAuction(); err != nil {
		return nil, nil, err
	}
	if err := op.Activate(); err != nil {
		return nil, nil, err
	}
	return op, reg, nil
}

// pocdSpec is the deployment every daemon of the workload runs: the zoo
// instance at the workload's scale under C1.
func (h *harness) pocdSpec() []byte {
	spec, err := json.Marshal(deploySpec{Scale: h.sz.PocdScale, Constraint: 1})
	if err != nil {
		panic(err) // a struct of numbers always marshals
	}
	return spec
}

// daemon is an in-process pocd: the journaled server behind a real
// HTTP listener on the loopback interface.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(journalPath string, spec []byte, noFsync bool) (*daemon, error) {
	srv, err := server.New(server.Config{
		Spec: spec, Build: buildDeployment, JournalPath: journalPath, NoFsync: noFsync,
		Now: time.Now, QueueDepth: 64,
		// The limiter runs on every request but never refuses.
		RateLimit: ratelimit.Config{Rate: 1e6},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains HTTP, then drains the writer and seals the journal, and
// waits for the listener goroutine.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.done
	if serr := d.srv.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// Operation kinds of the tenant mix, and their share of every 100 ops.
const (
	opStart = iota
	opStop
	opStatus
	opEpoch
	opChaos
	numOpKinds
)

var (
	opNames = [numOpKinds]string{"start_flows", "stop_flows", "status", "bill_epoch", "chaos"}
	opShare = [numOpKinds]int{40, 40, 15, 4, 1}
)

const (
	numTenants = 8
	traceBlock = 100 // ops per traced or untraced block of a client's sequence
)

// opRecord is one finished request. Latency runs from `from`: the send
// time in a closed loop; in the open loop the due time when the
// connection was still busy then, so a stall charges the ops queued
// behind it, and the send time when the connection was idle, because
// the runtime's timers wake a sleeper up to a millisecond late and
// that lateness (reported as pocd.gen_late_ms) is the generator's.
type opRecord struct {
	kind                 int
	due, sent, from, end time.Time
	ok                   bool
}

func (r opRecord) latencyMs() float64 { return r.end.Sub(r.from).Seconds() * 1e3 }

// client is one load connection. It owns a seeded op sequence and the
// flows it started, so clients never stop each other's flows.
type client struct {
	h       *harness
	hc      *http.Client
	base    string
	kinds   []int              // the op sequence, consumed in order
	next    int                // next op in kinds
	flows   [][]server.FlowReq // admission batches, consumed round-robin
	batch   int
	live    [][]int64 // FIFO of started batches not yet stopped
	link    int       // the leased link this client cuts and repairs
	cut     bool
	records []opRecord
	errs    []string // failed ops, merged into the harness when the phase ends
}

// opSequence lays out n ops in seeded blocks of 100 with the fixed
// shares. A stop needs a batch started at least two ops earlier, so a
// stop that would find fewer than two live batches trades places with
// the next start in its block; primed is how many batches set-up left
// live.
func opSequence(rng *rand.Rand, n, primed int) []int {
	out := make([]int, 0, n+100)
	depth := primed
	for len(out) < n {
		var block []int
		for k, share := range opShare {
			for i := 0; i < share; i++ {
				block = append(block, k)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			if block[i] == opStop && depth < 2 {
				for j := i + 1; j < len(block); j++ {
					if block[j] == opStart {
						block[i], block[j] = block[j], block[i]
						break
					}
				}
			}
			switch block[i] {
			case opStart:
				depth++
			case opStop:
				depth--
			}
		}
		out = append(out, block...)
	}
	return out[:n]
}

// send issues one JSON request and decodes the daemon's reply envelope.
func (c *client) send(method, path, tenant string, body any, result any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("X-POC-Tenant", tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if result == nil {
		return nil
	}
	env := struct {
		Result json.RawMessage `json:"result"`
	}{}
	if err := json.Unmarshal(raw, &env); err != nil {
		return err
	}
	return json.Unmarshal(env.Result, result)
}

// startBatch admits the next batch and remembers its flow IDs.
func (c *client) startBatch(tenant string) error {
	batch := c.flows[c.batch%len(c.flows)]
	c.batch++
	var res struct {
		IDs []int64 `json:"ids"`
	}
	if err := c.send("POST", "/v1/flows", tenant, map[string]any{"flows": batch}, &res); err != nil {
		return err
	}
	if len(res.IDs) != len(batch) {
		return fmt.Errorf("start_flows returned %d ids for %d flows", len(res.IDs), len(batch))
	}
	for _, id := range res.IDs {
		if id < 0 {
			return fmt.Errorf("start_flows refused a flow")
		}
	}
	c.live = append(c.live, res.IDs)
	return nil
}

// do performs the client's next op and records it.
func (c *client) do(seq int, due time.Time, span int) {
	kind := c.kinds[c.next]
	c.next++
	tenant := "tenant-" + strconv.Itoa(seq%numTenants)
	sent := time.Now()
	from := sent
	if due.IsZero() {
		due = sent
	} else if n := len(c.records); n > 0 && c.records[n-1].end.After(due) {
		from = due
	}
	var err error
	switch kind {
	case opStart:
		err = c.startBatch(tenant)
	case opStop:
		if len(c.live) == 0 { // only after an earlier start failed
			err = fmt.Errorf("no live batch to stop")
			break
		}
		ids := c.live[0]
		c.live = c.live[1:]
		var res struct {
			Stopped int `json:"stopped"`
		}
		if err = c.send("POST", "/v1/flows/stop", tenant, map[string]any{"ids": ids}, &res); err == nil && res.Stopped != len(ids) {
			err = fmt.Errorf("stop_flows stopped %d of %d", res.Stopped, len(ids))
		}
	case opStatus:
		err = c.send("GET", "/v1/status", tenant, nil, nil)
	case opEpoch:
		err = c.send("POST", "/v1/epoch", tenant, map[string]any{"seconds": 3600}, nil)
	case opChaos:
		ev := "cut-link"
		if c.cut {
			ev = "repair-link"
		}
		c.cut = !c.cut
		err = c.send("POST", "/v1/chaos", tenant, map[string]any{"kind": ev, "link": c.link}, nil)
	}
	end := time.Now()
	c.records = append(c.records, opRecord{kind: kind, due: due, sent: sent, from: from, end: end, ok: err == nil})
	// Spans are recorded for every other block of ops, so that a traced
	// run can tell what recording them costs.
	if (c.next/traceBlock)%2 == 0 {
		c.h.tr.leaf(span, "pocd.op."+opNames[kind], sent, end)
	}
	if err != nil {
		c.errs = append(c.errs, opNames[kind]+": "+err.Error())
	}
}

// tenantLoad is a live daemon with its attached clients.
type tenantLoad struct {
	d        *daemon
	journal  string
	clients  []*client
	setupOps int // journaled during set-up: attaches and priming batches
}

// pocdSetup deploys a daemon on a fresh journal, attaches one LMP per
// router, and primes every client with two live batches.
func pocdSetup(h *harness, noFsync bool, totalOps int) (*tenantLoad, error) {
	dir, err := os.MkdirTemp(h.tmp, "pocd-")
	if err != nil {
		return nil, err
	}
	spec := h.pocdSpec()
	tl := &tenantLoad{journal: filepath.Join(dir, "poc.journal")}
	h.call("server.New", func() { tl.d, err = startDaemon(tl.journal, spec, noFsync) })
	if err != nil {
		return nil, err
	}

	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: h.sz.PocdScale})
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}}
	admin := &client{h: h, hc: hc, base: tl.d.url}
	routers := len(s.Network.Routers)
	h.call("pocd.attach", func() {
		for r := 0; r < routers && err == nil; r++ {
			err = admin.send("POST", "/v1/members", "tenant-0",
				map[string]any{"name": fmt.Sprintf("lmp-%02d", r), "kind": "lmp", "router": r}, nil)
		}
	})
	if err != nil {
		return nil, err
	}
	tl.setupOps = routers

	perClient := totalOps/nproc + 2 // each of the two phases may round a client's share up
	for w := 0; w < nproc; w++ {
		rng := rand.New(rand.NewSource(h.seed*1000 + int64(w)))
		c := &client{
			h: h, hc: hc, base: tl.d.url,
			kinds: opSequence(rng, perClient, 2),
		}
		// Small flows, spread as the matrix spreads demand: capacity never binds.
		batches := 64
		fl := traffic.SampleFlows(s.TM, batches*h.sz.PocdBatch, 1e-3*float64(batches*h.sz.PocdBatch), h.seed*1000+int64(w))
		for b := 0; b < batches; b++ {
			batch := make([]server.FlowReq, h.sz.PocdBatch)
			for i := range batch {
				f := fl[b*h.sz.PocdBatch+i]
				batch[i] = server.FlowReq{Src: fmt.Sprintf("lmp-%02d", f.Src), Dst: fmt.Sprintf("lmp-%02d", f.Dst), Gbps: f.Gbps}
			}
			c.flows = append(c.flows, batch)
		}
		h.call("pocd.prime", func() {
			for i := 0; i < 2 && err == nil; i++ {
				err = c.startBatch("tenant-" + strconv.Itoa(w%numTenants))
			}
		})
		if err != nil {
			return nil, err
		}
		tl.setupOps += 2
		tl.clients = append(tl.clients, c)
	}
	// Each client cuts and repairs a link of its own among those the
	// primed flows run over.
	var used []core.LinkUtil
	if err := admin.send("GET", "/v1/utilization", "tenant-0", nil, &used); err != nil {
		return nil, err
	}
	if len(used) < nproc {
		return nil, fmt.Errorf("primed flows use %d links, need %d", len(used), nproc)
	}
	for w, c := range tl.clients {
		c.link = used[w*len(used)/nproc].Link
	}
	return tl, nil
}

// phase runs body on every client concurrently inside one span,
// then books the n ops it sent. It returns the duration in seconds.
func (tl *tenantLoad) phase(h *harness, name string, n int, body func(w int, c *client, span int)) float64 {
	id := h.tr.begin(name)
	t := time.Now()
	var wg sync.WaitGroup
	for w, c := range tl.clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			body(w, c, id)
		}(w, c)
	}
	wg.Wait()
	d := time.Since(t)
	h.tr.end(id)
	h.attempted += n
	for _, c := range tl.clients {
		for _, e := range c.errs {
			h.fail("%s", e)
		}
		c.errs = nil
	}
	return d.Seconds()
}

// saturate is the closed loop: every client sends its next op as soon
// as the previous one returned, n ops in all.
func (tl *tenantLoad) saturate(h *harness, n int) float64 {
	k := len(tl.clients)
	return tl.phase(h, "pocd.sat", n, func(w int, c *client, span int) {
		for j := w; j < n; j += k {
			c.do(j, time.Time{}, span)
		}
	})
}

// pace is the open loop: op j is due at start + j/rate whatever the
// daemon is doing, and its latency runs from that instant. Client w
// sends ops w, w+nproc, ... so at most nproc requests are in flight.
func (tl *tenantLoad) pace(h *harness, n, rate int) {
	k := len(tl.clients)
	t0 := time.Now().Add(10 * time.Millisecond)
	tl.phase(h, "pocd.paced", n, func(w int, c *client, span int) {
		for j := w; j < n; j += k {
			due := t0.Add(time.Duration(float64(j) / float64(rate) * float64(time.Second)))
			time.Sleep(time.Until(due))
			c.do(j, due, span)
		}
	})
}

// latencies returns, in milliseconds, the latency of the ops recorded
// at or after index from[w] of each client that match keep.
func (tl *tenantLoad) latencies(from []int, keep func(opRecord) bool) samples {
	var out samples
	for w, c := range tl.clients {
		for _, r := range c.records[from[w]:] {
			if keep(r) {
				out = append(out, r.latencyMs())
			}
		}
	}
	return out
}

// marks notes how many ops every client has recorded so far.
func (tl *tenantLoad) marks() []int {
	out := make([]int, len(tl.clients))
	for w, c := range tl.clients {
		out[w] = len(c.records)
	}
	return out
}

// traceOverhead compares, over the closed-loop phase (the records
// before upTo), how long a client took per block of ops whose spans
// were recorded with how long per block whose spans were not.
func (tl *tenantLoad) traceOverhead(upTo []int) float64 {
	var traced, plain samples
	for w, c := range tl.clients {
		// Set-up consumed no ops of the sequence, so record i is op i.
		for i := 0; i+traceBlock < upTo[w]; i += traceBlock {
			d := c.records[i+traceBlock].sent.Sub(c.records[i].sent).Seconds()
			// do() increments next before it tests the block parity.
			if ((i+1)/traceBlock)%2 == 0 {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	if plain.median() == 0 {
		return 0
	}
	return traced.median()/plain.median() - 1
}

// mutations counts the journaled ops among the recorded ones.
func (tl *tenantLoad) mutations() int {
	n := 0
	for _, c := range tl.clients {
		for _, r := range c.records {
			if r.kind != opStatus {
				n++
			}
		}
	}
	return n
}

func (tl *tenantLoad) obsExport() ([]byte, error) {
	resp, err := tl.clients[0].hc.Get(tl.d.url + "/v1/obs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/obs: %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the daemon's counters from GET /metrics.
func (tl *tenantLoad) scrape() (map[string]float64, error) {
	resp, err := tl.clients[0].hc.Get(tl.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// journalProbe times k appends of a 500-byte payload to a fresh journal
// and returns microseconds per append.
func journalProbe(dir string, k int, fsync bool) (float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("probe-%v.journal", fsync))
	w, err := journal.Create(path, []byte(`{"probe":true}`), fsync)
	if err != nil {
		return 0, err
	}
	payload := bytes.Repeat([]byte("x"), 500)
	t := time.Now()
	for i := 0; i < k; i++ {
		if _, err := w.Append(payload); err != nil {
			w.Close()
			return 0, err
		}
	}
	d := time.Since(t)
	return d.Seconds() * 1e6 / float64(k), w.Close()
}

// seal reads the live obs export, shuts the daemon down, and checks
// that an offline replay of the sealed journal reproduces the export
// byte for byte. It returns the export and the shutdown time.
func (tl *tenantLoad) seal(h *harness) ([]byte, float64) {
	live, err := tl.obsExport()
	h.must(err, "GET /v1/obs")
	stopS := h.call("pocd.shutdown", func() { h.must(tl.d.stop(), "shutdown") })
	_, replayed, err := server.ReplayFile(tl.journal, buildDeployment)
	h.must(err, "ReplayFile")
	h.ok(bytes.Equal(live, replayed), "ReplayFile export differs from the live one")
	return live, stopS
}

func runPocdTenants(h *harness) error {
	satOps := int(h.seconds * float64(h.sz.PocdSatRate))
	pacedOps := int(h.seconds / 2 * float64(h.sz.PocdPacedRate))
	h.fsType = fsTypeOf(h.tmp)
	var err error
	if h.fsyncUs, err = journalProbe(h.tmp, h.sz.JournalProbe, true); err != nil {
		return err
	}

	// The measured daemon journals without fsync: the disk under this
	// checkout moves fsync latency between 200 and 700 us within
	// minutes, and what a change to this repository can move is the
	// rest of the path. The traced run adds a durable daemon.
	// Every set-up deploys a daemon of its own; the last takes the load.
	var tl *tenantLoad
	h.beginSetup()
	for i := 0; i < h.sz.PocdSetups; i++ {
		if tl != nil {
			if err := tl.d.stop(); err != nil {
				return err
			}
		}
		h.setup = append(h.setup, h.call("setup", func() { tl, err = pocdSetup(h, true, satOps+pacedOps) }))
		if err != nil {
			return err
		}
	}

	h.beginRep(0)
	var satS float64
	mallocs, alloc := memDelta(func() { satS = tl.saturate(h, satOps) })
	h.calibrate()
	mark := tl.marks()
	tl.pace(h, pacedOps, h.sz.PocdPacedRate)
	h.calibrate()
	paced := tl.latencies(mark, isMutation)
	counters, err := tl.scrape()
	h.must(err, "GET /metrics")
	live, stopS := tl.seal(h)

	// Recovery: another server on the sealed journal, several times over.
	journaled := tl.setupOps + tl.mutations()
	spec := h.pocdSpec()
	var recovers samples
	for i := 0; i < h.sz.PocdRecovers; i++ {
		var rec *daemon
		recovers = append(recovers, h.call("server.New.recover", func() { rec, err = startDaemon(tl.journal, spec, true) }))
		if !h.must(err, "recover") {
			return nil
		}
		if i == 0 {
			if r := rec.srv.Recovered(); h.ok(r != nil, "second server did not recover the journal") {
				h.ok(r.Ops == journaled, "journal holds %d ops, the load sent %d mutations", r.Ops, journaled)
			}
			tl.d = rec
			recovered, err := tl.obsExport()
			h.must(err, "GET /v1/obs after recovery")
			h.ok(bytes.Equal(live, recovered), "recovered obs export differs from the live one")
		}
		h.must(rec.stop(), "shutdown after recovery")
		h.calibrate()
	}

	// The paced phase lasts what its schedule says, so wall_s leaves it out.
	var rs repSamples
	rs.wall = samples{satS + stopS + recovers.median()}
	rs.add(satS, paced.median(), recovers.median(), mallocs, alloc)
	h.record(&rs)
	h.pins["pocd-tenants.journal_ops"] = strconv.Itoa(journaled)

	if !h.trace {
		return nil
	}
	return h.pocdLayers(tl, mark, paced, satOps, pacedOps, satS, recovers.median(), journaled, counters)
}

func isMutation(r opRecord) bool { return r.kind != opStatus }

// pocdLayers fills the per-layer metrics of pocd-tenants.
func (h *harness) pocdLayers(tl *tenantLoad, mark []int, paced samples, satOps, pacedOps int, satS, recoverS float64, journaled int, counters map[string]float64) error {
	tr := h.tr
	h.setLayerValue("bench.trace_overhead_frac", tl.traceOverhead(mark))
	h.setLayerValue("pocd.ops_per_s", float64(satOps)/satS)
	h.setLayerValue("pocd.op_p99_ms", paced.quantile(0.99))
	miss := 0
	var late samples
	for w, c := range tl.clients {
		for _, r := range c.records[mark[w]:] {
			if !r.ok || r.latencyMs() > 5 {
				miss++
			}
			late = append(late, r.sent.Sub(r.due).Seconds()*1e3)
		}
	}
	h.setLayerValue("pocd.slo_miss_frac", float64(miss)/float64(max(len(late), 1)))
	h.setLayerValue("pocd.gen_late_ms", late.quantile(0.99))
	byKind := func(kind int) float64 {
		return tl.latencies(mark, func(r opRecord) bool { return r.kind == kind }).median()
	}
	h.setLayerValue("pocd.read_p50_ms", byKind(opStatus))
	h.setLayerValue("pocd.start_flows_p50_ms", byKind(opStart))
	h.setLayerValue("pocd.stop_flows_p50_ms", byKind(opStop))
	h.setLayerValue("pocd.bill_epoch_p50_ms", byKind(opEpoch))
	h.setLayerValue("pocd.shed", counters["pocd_shed_total"])
	h.setLayerValue("pocd.timeouts", counters["pocd_timeouts_total"])
	h.setLayerValue("pocd.degraded_reads", counters["pocd_degraded_reads_total"])
	h.setLayerValue("pocd.rate_limited", counters["pocd_rate_limited_total"])

	tr.rep, tr.on = -1, true
	root := tr.begin("pocd-tenants.probes")
	defer tr.end(root)

	spec := h.pocdSpec()
	var op *core.POC
	var reg *obs.Registry
	var err error
	buildS := h.call("pocd.build", func() { op, reg, err = buildDeployment(spec) })
	if err != nil {
		return err
	}
	h.setLayerValue("pocd.build_s", buildS)
	// Recovery is the build plus the replay; on a journal so short that
	// noise hides the replay the rate reads 0.
	replayRate := 0.0
	if replayS := recoverS - buildS; replayS > 0 {
		replayRate = float64(journaled) / replayS
	}
	h.setLayerValue("pocd.replay_ops_per_s", replayRate)

	// Snapshot and export run inside publish() on every mutation: probe
	// them on a deployment loaded like the daemon's.
	routers := len(op.Network().Routers)
	for r := 0; r < routers; r++ {
		if _, err := op.AttachLMP(fmt.Sprintf("lmp-%02d", r), r, peering.Policy{}); err != nil {
			return err
		}
	}
	for _, c := range tl.clients {
		for _, batch := range c.flows[:4] {
			reqs := make([]core.FlowRequest, len(batch))
			for i, f := range batch {
				reqs[i] = core.FlowRequest{Src: f.Src, Dst: f.Dst, Gbps: f.Gbps, Class: netsim.BestEffort}
			}
			if _, err := op.StartFlows(reqs); err != nil {
				return err
			}
		}
	}
	sec, _ := probe(h.sz.ProbeK*4, func() { op.Snapshot() })
	h.setLayerValue("core.snapshot_us", sec*1e6)
	sec, _ = probe(h.sz.ProbeK*4, func() { reg.ExportJSON() })
	h.setLayerValue("obs.export_us", sec*1e6)

	h.setLayerValue("journal.append_fsync_us", h.fsyncUs)
	nofsync, err := journalProbe(h.tmp, h.sz.JournalProbe, false)
	if err != nil {
		return err
	}
	h.setLayerValue("journal.append_nofsync_us", nofsync)
	if fi, err := os.Stat(tl.journal); err == nil {
		h.setLayerValue("journal.bytes_per_op", float64(fi.Size())/float64(journaled))
	}
	var res *journal.ReplayResult
	replayS := h.call("journal.Replay", func() { res, err = journal.Replay(tl.journal, nil) })
	if h.must(err, "journal.Replay") {
		h.setLayerValue("journal.replay_ops_per_s", float64(res.Ops)/replayS)
	}

	// Half the load again against a durable daemon: what fsync adds to
	// throughput and to the median mutation.
	df, err := pocdSetup(h, h.sz.PocdNoFsync, (satOps+pacedOps)/2)
	if err != nil {
		return err
	}
	tr.on = false
	dfS := df.saturate(h, satOps/2)
	mark = df.marks()
	df.pace(h, pacedOps/2, h.sz.PocdPacedRate)
	tr.on = true
	h.setLayerValue("pocd.fsync_ops_per_s", float64(satOps/2)/dfS)
	h.setLayerValue("pocd.fsync_op_p50_ms", df.latencies(mark, isMutation).median())
	return df.d.stop()
}

// fsTypeOf names the filesystem that holds path, from /proc/self/mounts.
func fsTypeOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}
