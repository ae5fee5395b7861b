package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"acic/internal/dynamic"
	"acic/internal/engine"
	"acic/internal/graph"
	"acic/internal/seq"
)

// spanHeader carries "op,parent-span" from a traced client request to the
// server-side span wrapper.
const spanHeader = "X-Perfbench-Span"

// maxConns bounds the client's concurrent connections: all load comes from
// one process, and the host has two cores.
const maxConns = 2

const requestTimeout = 10 * time.Second

// server is one engine served over loopback HTTP, with its client.
type server struct {
	eng      *engine.Engine
	srv      *http.Server
	serveErr chan error
	base     string
	client   *http.Client
}

func startServer(g *graph.Graph, spans *spanLog) (*server, error) {
	eng, err := engine.NewDynamic(dynamic.FromCSR(g), engine.Config{Topo: topo, MaxInFlight: maxConns})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Close(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &server{
		eng:      eng,
		srv:      &http.Server{Handler: spanHandler{next: eng.Handler(), spans: spans}},
		serveErr: make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for its accept loop to return and drains
// the engine.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.eng.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// reply is one finished request: sent and done bound the client's view.
type reply struct {
	status     int
	body       []byte
	err        error
	sent, done time.Time
}

func (s *server) do(method, path string, body []byte, span string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r := reply{sent: time.Now()}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status, r.done = resp.StatusCode, time.Now()
	return r
}

// spanHandler records a server-side span around each traced request.
type spanHandler struct {
	next  http.Handler
	spans *spanLog
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	opS, parentS, ok := strings.Cut(r.Header.Get(spanHeader), ",")
	op, err1 := strconv.ParseInt(opS, 10, 64)
	parent, err2 := strconv.ParseInt(parentS, 10, 64)
	if !ok || err1 != nil || err2 != nil || h.spans == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.spans.add(parent, op, "server"+r.URL.Path, start, time.Now())
}

func readURL(r readOp) string {
	if r.Path {
		return fmt.Sprintf("/path?source=%d&target=%d", r.Source, r.Target)
	}
	vs := make([]string, len(r.Vertices))
	for i, v := range r.Vertices {
		vs[i] = strconv.Itoa(int(v))
	}
	return fmt.Sprintf("/sssp?source=%d&vertices=%s", r.Source, strings.Join(vs, ","))
}

func mutateBody(batch []dynamic.Mutation) ([]byte, error) {
	req := engine.MutateRequest{Mutations: make([]engine.MutationJSON, len(batch))}
	for i, m := range batch {
		req.Mutations[i] = engine.MutationJSON{Op: m.Op.String(), From: m.From, To: m.To, Weight: m.Weight}
	}
	return json.Marshal(req)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// setupServe builds the serve workload's graph, schedule and server, set up
// setupRepeats times, each warmed up by one GET /sssp for a different
// scheduled source; it returns the last server, the set-up and generation
// times.
func setupServe(o runOpts, spans *spanLog) (g *graph.Graph, reads []readOp, writes []writeOp, s *server, setups, genS []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		root := spans.id()
		t0 := time.Now()
		g = serveGraph(o.seed)
		t1 := time.Now()
		if reads == nil {
			reads, writes = serveSchedule(g, o.seed, o.seconds) // input derivation, not set-up
			if len(reads) == 0 {
				return nil, nil, nil, nil, nil, nil, errors.New("empty read schedule")
			}
		}
		t2 := time.Now()
		if s, err = startServer(g, spans); err != nil {
			return nil, nil, nil, nil, nil, nil, err
		}
		warm := s.do(http.MethodGet, fmt.Sprintf("/sssp?source=%d", reads[i%len(reads)].Source), nil, "")
		t3 := time.Now()
		if warm.err == nil && warm.status != http.StatusOK {
			warm.err = fmt.Errorf("status %d: %s", warm.status, bytes.TrimSpace(warm.body))
		}
		if warm.err != nil {
			_ = s.close() // the warm-up error is the one to report
			return nil, nil, nil, nil, nil, nil, fmt.Errorf("warm-up read: %w", warm.err)
		}
		spans.add(root, 0, "gen", t0, t1)
		spans.add(root, 0, "engine+warmup", t2, t3)
		spans.record(root, 0, 0, "setup", t0, t3)
		genS = append(genS, t1.Sub(t0).Seconds())
		setups = append(setups, t1.Sub(t0).Seconds()+t3.Sub(t2).Seconds())
		if i < setupRepeats-1 {
			if err = s.close(); err != nil {
				return nil, nil, nil, nil, nil, nil, err
			}
		}
	}
	return g, reads, writes, s, setups, genS, nil
}

// runServe drives the open-loop serve workload: reads go out on their
// Poisson schedule whether or not earlier ones finished, writes go out in
// order on their own fixed schedule, and every response is checked against
// Dijkstra on the replica graph of the response's epoch after the run.
func runServe(o runOpts, rep *report, spans *spanLog) error {
	g, reads, writes, s, setups, genS, err := setupServe(o, spans)
	if err != nil {
		return err
	}
	urls := make([]string, len(reads))
	for i, r := range reads {
		urls[i] = readURL(r)
	}
	bodies := make([][]byte, len(writes))
	for k, w := range writes {
		if bodies[k], err = mutateBody(w.Batch); err != nil {
			_ = s.close()
			return err
		}
	}

	var (
		readRes   = make([]reply, len(reads))
		readSpan  = make([]int64, len(reads))
		writeRes  = make([]reply, len(writes))
		writeSpan = make([]int64, len(writes))
		lag       = make([]float64, len(reads)+len(writes))
		wg        sync.WaitGroup
		m0, m1    goruntime.MemStats
	)
	goruntime.ReadMemStats(&m0)
	snap0 := s.eng.MetricsSnapshot()
	start := time.Now()
	wg.Add(1)
	go func() { // writes, one at a time so the engine applies them in order
		defer wg.Done()
		for k, w := range writes {
			due := start.Add(w.At)
			sleepUntil(due)
			lag[len(reads)+k] = ms(time.Since(due))
			hdr := ""
			if o.trace {
				writeSpan[k] = spans.id()
				hdr = fmt.Sprintf("%d,%d", len(reads)+k, writeSpan[k])
			}
			writeRes[k] = s.do(http.MethodPost, "/mutate", bodies[k], hdr)
		}
	}()
	for i, r := range reads {
		due := start.Add(r.At)
		sleepUntil(due)
		lag[i] = ms(time.Since(due))
		hdr := ""
		if o.trace && i%2 == 0 {
			readSpan[i] = spans.id()
			hdr = fmt.Sprintf("%d,%d", i, readSpan[i])
		}
		wg.Add(1)
		go func() { // bounded by the schedule: one goroutine per scheduled read
			defer wg.Done()
			readRes[i] = s.do(http.MethodGet, urls[i], nil, hdr)
		}()
	}
	wg.Wait()
	delta := s.eng.MetricsSnapshot().Diff(snap0)
	goruntime.ReadMemStats(&m1)
	if err := s.close(); err != nil {
		return fmt.Errorf("closing the server: %w", err)
	}

	for i, id := range readSpan {
		if id != 0 {
			spans.record(id, 0, int64(i), "client.read", readRes[i].sent, readRes[i].done)
		}
	}
	for k, id := range writeSpan {
		if id != 0 {
			spans.record(id, 0, int64(len(reads)+k), "client.write", writeRes[k].sent, writeRes[k].done)
		}
	}

	ck := &serveChecker{g: g, rep: rep, spans: spans}
	ck.writes(writes, writeRes)
	ck.reads(reads, readRes)

	rep.Attempted = len(reads) + len(writes)
	var readMs, writeMs []float64
	met := 0
	for i, r := range reads {
		if !ck.readOK[i] {
			continue
		}
		lat := readRes[i].done.Sub(start.Add(r.At))
		readMs = append(readMs, ms(lat))
		if lat <= readSLO {
			met++
		}
	}
	for k, w := range writes {
		if ck.writeOK[k] {
			writeMs = append(writeMs, ms(writeRes[k].done.Sub(start.Add(w.At))))
		}
	}

	if !o.trace {
		p50, p90 := quantile(readMs, 0.5), quantile(readMs, 0.9)
		rep.add("read_ms_p50", p50, "ms", len(readMs))
		rep.add("read_ms_p90", p90, "ms", len(readMs))
		rep.add("write_ms_p50", quantile(writeMs, 0.5), "ms", len(writeMs))
		rep.add("slo_met_ratio", ratio(float64(met), float64(len(reads))), "ratio", len(reads))
		rep.add("op_ms_p50", p50, "ms", len(readMs))
		rep.add("op_ms_p90", p90, "ms", len(readMs))
		rep.add("setup_s", quantile(setups, 0.5), "s", len(setups))
		rep.add("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Attempted)
		rep.add("rss_peak_mb", peakRSSMB(), "MB", 0)
		return nil
	}

	serverMs := make(map[int64]float64) // client span id → server span ms
	for _, sp := range spans.all() {
		if strings.HasPrefix(sp.Name, "server/") {
			serverMs[sp.Parent] = float64(sp.End-sp.Start) / 1e6
		}
	}
	var missMs, hitMs, pathMs, overheadMs, tracedMs, plainMs []float64
	for i := range reads {
		if !ck.readOK[i] {
			continue
		}
		client := ms(readRes[i].done.Sub(readRes[i].sent))
		if readSpan[i] == 0 {
			plainMs = append(plainMs, client)
			continue
		}
		tracedMs = append(tracedMs, client)
		srv := serverMs[readSpan[i]]
		overheadMs = append(overheadMs, client-srv)
		switch ck.kind[i] {
		case "miss":
			missMs = append(missMs, srv)
		case "hit":
			hitMs = append(hitMs, srv)
		case "path":
			pathMs = append(pathMs, srv)
		}
	}
	queries := delta.Counter("engine.queries")
	nReads := float64(len(reads))
	rep.add("engine.hit_ratio", ratio(float64(delta.Counter("engine.cache_hits")), float64(queries)), "ratio", int(queries))
	rep.add("engine.queries", float64(queries), "count", 0)
	rep.add("engine.singleflight_follows", ratio(float64(delta.Counter("engine.singleflight_follows")), nReads), "count", len(reads))
	rep.add("engine.shed", ratio(float64(delta.Counter("engine.shed")), nReads), "count", len(reads))
	missP50 := quantile(missMs, 0.5)
	rep.add("engine.miss_ms_p50", missP50, "ms", len(missMs))
	rep.add("engine.hit_ms_p50", quantile(hitMs, 0.5), "ms", len(hitMs))
	rep.add("engine.path_ms_p50", quantile(pathMs, 0.5), "ms", len(pathMs))
	rep.add("engine.p2p_settled", ratio(float64(ck.settled), float64(ck.paths)), "count", ck.paths)
	rep.add("engine.http_overhead_ms", quantile(overheadMs, 0.5), "ms", len(overheadMs))
	rep.add("dynamic.mutate_ms", quantile(ck.mutateMs, 0.5), "ms", len(ck.mutateMs))
	rep.add("dynamic.invalidated_per_batch", ratio(float64(ck.invalidated), float64(len(ck.mutateMs))), "count", len(ck.mutateMs))
	rep.add("dynamic.repaired_per_batch", ratio(float64(ck.repaired), float64(len(ck.mutateMs))), "count", len(ck.mutateMs))
	rep.add("dynamic.batches", float64(len(ck.mutateMs)), "count", 0)
	dijP50 := quantile(ck.dijkstraMs, 0.5)
	rep.add("seq.dijkstra_ms_p50", dijP50, "ms", len(ck.dijkstraMs))
	rep.add("core.vs_dijkstra", ratio(missP50, dijP50), "ratio", len(missMs))
	rep.add("gen.graph_s", quantile(genS, 0.5), "s", len(genS))
	ops := float64(rep.Attempted)
	rep.add("go.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/ops, "MB", rep.Attempted)
	rep.add("go.gc_per_op", float64(m1.NumGC-m0.NumGC)/ops, "count", rep.Attempted)
	rep.add("loadgen.lag_ms_p90", quantile(lag, 0.9), "ms", len(lag))
	rep.add("trace.overhead_ratio", ratio(quantile(tracedMs, 0.5), quantile(plainMs, 0.5)), "ratio", len(tracedMs))
	rep.add("trace.dropped", 0, "count", 0) // spans are kept in full; no recorder runs here
	rep.add("trace.ops", float64(len(tracedMs)), "count", 0)
	rep.add("trace.plain_ops", float64(len(plainMs)), "count", 0)
	return nil
}

// serveChecker replays the accepted mutation batches on a replica graph
// and checks every response against Dijkstra on its epoch's replica.
type serveChecker struct {
	g     *graph.Graph
	rep   *report
	spans *spanLog

	accepted [][]dynamic.Mutation // batches the engine applied, in epoch order
	edges    []int                // edge count each accepted batch reported

	writeOK, readOK []bool
	kind            []string // "hit", "miss" or "path" per read

	mutateMs              []float64
	invalidated, repaired int
	settled               int64
	paths                 int
	dijkstraMs            []float64
}

func (c *serveChecker) writes(ops []writeOp, res []reply) {
	c.writeOK = make([]bool, len(ops))
	for k, r := range res {
		op := fmt.Sprintf("write/%d", k)
		if cause := httpFailure(r); cause != "" {
			c.rep.fail(op, cause, false)
			continue
		}
		var mr engine.MutateResponse
		if err := json.Unmarshal(r.body, &mr); err != nil {
			c.rep.fail(op, "undecodable response: "+err.Error(), true)
			continue
		}
		if want := uint64(len(c.accepted) + 1); mr.Epoch != want {
			c.rep.fail(op, fmt.Sprintf("epoch %d after %d accepted batches, want %d", mr.Epoch, len(c.accepted), want), true)
			continue
		}
		c.accepted = append(c.accepted, ops[k].Batch)
		c.edges = append(c.edges, mr.Edges)
		c.writeOK[k] = true
		c.mutateMs = append(c.mutateMs, float64(mr.ElapsedNS)/1e6)
		c.invalidated += mr.InvalidatedLabels
		c.repaired += mr.RepairedVectors
	}
}

// decodedRead is one successful read response.
type decodedRead struct {
	sssp  *engine.SSSPResponse
	path  *engine.PathResponse
	epoch uint64
}

func (c *serveChecker) reads(ops []readOp, res []reply) {
	c.readOK = make([]bool, len(ops))
	c.kind = make([]string, len(ops))
	byEpoch := make(map[uint64][]int)
	decoded := make([]decodedRead, len(ops))
	var maxEpoch uint64
	for i, r := range res {
		op := readOpName(i, ops[i])
		if cause := httpFailure(r); cause != "" {
			c.rep.fail(op, cause, false)
			continue
		}
		var err error
		if ops[i].Path {
			var p engine.PathResponse
			err = json.Unmarshal(r.body, &p)
			decoded[i] = decodedRead{path: &p, epoch: p.Epoch}
		} else {
			var s engine.SSSPResponse
			err = json.Unmarshal(r.body, &s)
			decoded[i] = decodedRead{sssp: &s, epoch: s.Epoch}
		}
		if err != nil {
			c.rep.fail(op, "undecodable response: "+err.Error(), true)
			continue
		}
		e := decoded[i].epoch
		if e > uint64(len(c.accepted)) {
			c.rep.fail(op, fmt.Sprintf("epoch %d but only %d batches accepted", e, len(c.accepted)), true)
			continue
		}
		byEpoch[e] = append(byEpoch[e], i)
		maxEpoch = max(maxEpoch, e)
	}

	replica := dynamic.FromCSR(c.g)
	snap := c.g
	for e := uint64(0); e <= maxEpoch; e++ {
		if e > 0 {
			if _, err := replica.Apply(c.accepted[e-1]); err != nil {
				c.failEpoch(ops, byEpoch, e, maxEpoch, "replica rejected a batch the engine accepted: "+err.Error())
				return
			}
			if replica.NumEdges() != c.edges[e-1] {
				c.failEpoch(ops, byEpoch, e, maxEpoch, fmt.Sprintf("engine reported %d edges, replica has %d", c.edges[e-1], replica.NumEdges()))
				return
			}
			if len(byEpoch[e]) == 0 {
				continue
			}
			snap = replica.Snapshot()
		}
		oracle := make(map[int32][]float64)
		for _, i := range byEpoch[e] {
			r := ops[i]
			want, ok := oracle[r.Source]
			if !ok {
				id := c.spans.id()
				t := time.Now()
				want = seq.Dijkstra(snap, int(r.Source)).Dist
				d := time.Since(t)
				c.spans.record(id, 0, int64(i), "seq.Dijkstra", t, t.Add(d))
				c.dijkstraMs = append(c.dijkstraMs, ms(d))
				oracle[r.Source] = want
			}
			var cause string
			if r.Path {
				c.kind[i] = "path"
				c.paths++
				c.settled += decoded[i].path.Settled
				cause = checkPath(snap, r, decoded[i].path, want)
			} else {
				c.kind[i] = "miss"
				if decoded[i].sssp.CacheHit {
					c.kind[i] = "hit"
				}
				cause = checkSSSP(r, decoded[i].sssp, want)
			}
			if cause != "" {
				c.rep.fail(readOpName(i, r), fmt.Sprintf("epoch %d: %s", e, cause), true)
				continue
			}
			c.readOK[i] = true
		}
	}
}

// failEpoch fails every read at epochs e..maxEpoch: their oracle graph
// cannot be rebuilt.
func (c *serveChecker) failEpoch(ops []readOp, byEpoch map[uint64][]int, e, maxEpoch uint64, cause string) {
	for ; e <= maxEpoch; e++ {
		for _, i := range byEpoch[e] {
			c.rep.fail(readOpName(i, ops[i]), fmt.Sprintf("epoch %d: %s", e, cause), true)
		}
	}
}

func readOpName(i int, r readOp) string {
	if r.Path {
		return fmt.Sprintf("read/%d/path?source=%d&target=%d", i, r.Source, r.Target)
	}
	return fmt.Sprintf("read/%d/sssp?source=%d", i, r.Source)
}

// httpFailure names why a request failed, or returns "" for a 200.
func httpFailure(r reply) string {
	var ne net.Error
	switch {
	case errors.As(r.err, &ne) && ne.Timeout():
		return "timeout: " + r.err.Error()
	case r.err != nil:
		return "error: " + r.err.Error()
	case r.status == http.StatusTooManyRequests:
		return "shed (429)"
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return ""
}

func checkSSSP(r readOp, got *engine.SSSPResponse, want []float64) string {
	if got.Source != int(r.Source) {
		return fmt.Sprintf("answered source %d", got.Source)
	}
	reach, sum := 0, 0.0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			reach++
			sum += d
		}
	}
	if got.Reachable != reach {
		return fmt.Sprintf("reachable %d, Dijkstra %d", got.Reachable, reach)
	}
	if !near(got.Checksum, sum) {
		return fmt.Sprintf("checksum %v, Dijkstra %v", got.Checksum, sum)
	}
	if len(got.Distances) != len(r.Vertices) {
		return fmt.Sprintf("%d projected distances for %d vertices", len(got.Distances), len(r.Vertices))
	}
	for j, vd := range got.Distances {
		v := r.Vertices[j]
		w := want[v]
		switch {
		case vd.Vertex != v:
			return fmt.Sprintf("projection entry %d is vertex %d, asked %d", j, vd.Vertex, v)
		case vd.Dist == nil && !math.IsInf(w, 1), vd.Dist != nil && (math.IsInf(w, 1) || !near(*vd.Dist, w)):
			return fmt.Sprintf("vertex %d distance %v, Dijkstra %v", v, distString(vd.Dist), w)
		}
	}
	return ""
}

func checkPath(g *graph.Graph, r readOp, got *engine.PathResponse, want []float64) string {
	w := want[r.Target]
	if got.Reachable == math.IsInf(w, 1) {
		return fmt.Sprintf("reachable=%v, Dijkstra distance %v", got.Reachable, w)
	}
	if !got.Reachable {
		return ""
	}
	if got.Distance == nil || !near(*got.Distance, w) {
		return fmt.Sprintf("distance %v, Dijkstra %v", distString(got.Distance), w)
	}
	p := got.Path
	if len(p) == 0 || p[0] != r.Source || p[len(p)-1] != r.Target {
		return fmt.Sprintf("path %v does not run from %d to %d", p, r.Source, r.Target)
	}
	length := 0.0
	for j := 1; j < len(p); j++ {
		best := math.Inf(1)
		ts, ws := g.Neighbors(int(p[j-1]))
		for k, t := range ts {
			if t == p[j] {
				best = math.Min(best, ws[k])
			}
		}
		length += best
	}
	if !near(length, w) {
		return fmt.Sprintf("path length %v, Dijkstra %v", length, w)
	}
	return ""
}

// near compares two distances as seq.Equal does: +Inf (unreachable) equals
// only +Inf, and finite distances agree within a relative 1e-9.
func near(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func distString(d *float64) string {
	if d == nil {
		return "unreachable"
	}
	return strconv.FormatFloat(*d, 'g', -1, 64)
}
