// Command duet-node serves one model over HTTP: an internal/serve.Server
// behind a JSON front door, with the server's admission control and typed
// shed reasons.
//
// Each HTTP request runs as its own one-request serve.Server.Run on a fresh
// virtual timeline, and one mutex serialises those runs. So -batch and
// -window-ms never coalesce rows across HTTP requests, -replicas never runs
// two requests at once, and -deadline-ms is measured in virtual
// milliseconds, not wall time.
//
// Endpoints:
//
//	POST /v1/infer   JSON inference ({"inputs": {name: {shape, data}}})
//	GET  /healthz    liveness plus the node's service-time floor
//	GET  /metrics    Prometheus text exposition of duet_* and serve_* series
//
// Usage:
//
//	duet-node -model widedeep -small -addr :8080
//	duet-node -model resnet18 -small -batch 8 -window-ms 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"duet/internal/core"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/serve"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		model      = flag.String("model", "widedeep", "widedeep | siamese | mtdnn | resnet18/34/50/101")
		seed       = flag.Int64("seed", 42, "model/profiling seed")
		small      = flag.Bool("small", false, "use a reduced model (fast startup and per-request math)")
		replicas   = flag.Int("replicas", 1, "engine replica count")
		batch      = flag.Int("batch", 1, "micro-batch row cap (1 disables coalescing)")
		windowMS   = flag.Float64("window-ms", 2, "micro-batch accumulation window in virtual ms")
		queueCap   = flag.Int("queue-cap", 256, "admission queue bound in rows")
		deadlineMS = flag.Float64("deadline-ms", 0, "default per-request SLA in virtual ms (0 = none; enables admission control)")
	)
	flag.Parse()

	node, err := newNodeServer(*model, *seed, *small, *replicas, *batch, *windowMS/1e3, *queueCap, *deadlineMS/1e3)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-node:", err)
		os.Exit(1)
	}
	defer node.srv.Close()

	hs := &http.Server{Addr: *addr, Handler: node.handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("duet-node: serving %s on %s (min service %.3f virtual ms)\n",
		node.model, *addr, float64(node.srv.MinService())*1e3)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "duet-node:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("duet-node: draining")
	if err := hs.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "duet-node: shutdown:", err)
		os.Exit(1)
	}
}

// nodeServer owns the serve.Server and its registry. serve.Server.Run is a
// single-threaded virtual-time event loop, so the HTTP layer serialises
// calls with a mutex: each request runs as its own one-request stream on a
// fresh virtual timeline.
type nodeServer struct {
	model    string
	deadline vclock.Seconds
	reg      *obs.Registry

	mu     sync.Mutex
	srv    *serve.Server
	nextID int
}

func newNodeServer(model string, seed int64, small bool, replicas, batch int, window vclock.Seconds, queueCap int, deadline vclock.Seconds) (*nodeServer, error) {
	g, batchGraph, err := buildModel(model, seed, small)
	if err != nil {
		return nil, err
	}
	engine, err := core.Build(g, core.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	if batch > 1 && batchGraph == nil {
		return nil, fmt.Errorf("model %q has no batch-resizing builder; use -batch 1", model)
	}
	srv, err := serve.New(serve.Config{
		Engine:     engine,
		BatchGraph: batchGraph,
		Replicas:   replicas,
		QueueCap:   queueCap,
		MaxBatch:   batch,
		Window:     window,
		Pipelined:  true,
		Admission:  deadline > 0,
		Seed:       seed,
		Registry:   reg,
	})
	if err != nil {
		return nil, err
	}
	return &nodeServer{model: g.Name, deadline: deadline, reg: reg, srv: srv}, nil
}

// handler routes the node's three endpoints.
func (n *nodeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", n.handleInfer)
	mux.HandleFunc("/healthz", n.handleHealthz)
	mux.HandleFunc("/metrics", n.handleMetrics)
	return mux
}

// jsonTensor is the wire form of a tensor: row-major data under an explicit
// shape.
type jsonTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// check rejects a shape with no dimensions, a dimension below 1, or an
// element count other than len(Data). The running product is bounded by
// len(Data) before each multiply, so a huge shape cannot overflow into a
// match.
func (jt jsonTensor) check() error {
	if len(jt.Shape) == 0 {
		return fmt.Errorf("empty shape")
	}
	n := 1
	for _, d := range jt.Shape {
		if d < 1 {
			return fmt.Errorf("shape %v has a dimension below 1", jt.Shape)
		}
		if d > len(jt.Data)/n {
			return fmt.Errorf("data length %d does not match shape %v", len(jt.Data), jt.Shape)
		}
		n *= d
	}
	if n != len(jt.Data) {
		return fmt.Errorf("data length %d does not match shape %v", len(jt.Data), jt.Shape)
	}
	return nil
}

type inferRequest struct {
	// DeadlineMS overrides the node's default SLA for this request (virtual
	// milliseconds from arrival; 0 keeps the default).
	DeadlineMS float64               `json:"deadline_ms,omitempty"`
	Inputs     map[string]jsonTensor `json:"inputs"`
}

type inferResponse struct {
	ID        int          `json:"id"`
	Outcome   string       `json:"outcome"`
	Reason    string       `json:"reason,omitempty"`
	Error     string       `json:"error,omitempty"`
	LatencyMS float64      `json:"latency_virtual_ms"`
	BatchRows int          `json:"batch_rows"`
	Outputs   []jsonTensor `json:"outputs,omitempty"`
}

func (n *nodeServer) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in inferRequest
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(in.Inputs) == 0 {
		http.Error(w, "bad request: no inputs", http.StatusBadRequest)
		return
	}
	inputs := make(map[string]*tensor.Tensor, len(in.Inputs))
	for name, jt := range in.Inputs {
		if err := jt.check(); err != nil {
			http.Error(w, fmt.Sprintf("bad request: input %q: %v", name, err), http.StatusBadRequest)
			return
		}
		inputs[name] = tensor.FromSlice(jt.Data, jt.Shape...)
	}
	deadline := n.deadline
	if in.DeadlineMS > 0 {
		deadline = vclock.Seconds(in.DeadlineMS) / 1e3
	}

	resp, err := n.run(deadline, inputs)
	if err != nil {
		http.Error(w, "serve: "+err.Error(), http.StatusInternalServerError)
		return
	}

	out := inferResponse{
		ID:        resp.ID,
		Outcome:   string(resp.Outcome),
		Reason:    string(resp.Reason),
		LatencyMS: float64(resp.Latency) * 1e3,
		BatchRows: resp.BatchRows,
	}
	if resp.Err != nil {
		out.Error = resp.Err.Error()
	}
	status := http.StatusOK
	switch resp.Outcome {
	case serve.OK:
		for _, t := range resp.Outputs {
			out.Outputs = append(out.Outputs, jsonTensor{Shape: t.Shape(), Data: t.Data()})
		}
	case serve.Rejected:
		status = http.StatusTooManyRequests
		if resp.Reason == serve.ShedInvalid {
			status = http.StatusBadRequest
		}
	default: // Expired, Failed
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(out)
}

// run serves one request on a fresh virtual timeline. The deferred unlock
// keeps the node answering if Run panics: net/http recovers the handler,
// and a mutex still held would wedge every later request.
func (n *nodeServer) run(deadline vclock.Seconds, inputs map[string]*tensor.Tensor) (serve.Response, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.nextID
	n.nextID++
	_, resps, err := n.srv.Run([]serve.Request{{ID: id, Deadline: deadline, Inputs: inputs}})
	if err != nil {
		return serve.Response{}, err
	}
	return resps[0], nil
}

func (n *nodeServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{
		"status":         "ok",
		"model":          n.model,
		"min_service_ms": float64(n.srv.MinService()) * 1e3,
	})
}

func (n *nodeServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := n.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// buildModel returns the model graph plus its batch-resizing builder (nil
// when the model has none wired).
func buildModel(name string, seed int64, small bool) (*graph.Graph, func(int) (*graph.Graph, error), error) {
	switch {
	case name == "widedeep":
		cfg := models.DefaultWideDeep()
		if small {
			cfg.ImageSize, cfg.SeqLen, cfg.CNNDepth = 64, 16, 18
		}
		g, err := models.WideDeep(cfg)
		return g, func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			return models.WideDeep(c)
		}, err
	case name == "siamese":
		cfg := models.DefaultSiamese()
		if small {
			cfg.SeqLen, cfg.Hidden = 16, 64
		}
		g, err := models.Siamese(cfg)
		return g, func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			return models.Siamese(c)
		}, err
	case name == "mtdnn":
		cfg := models.DefaultMTDNN()
		if small {
			cfg.SeqLen, cfg.Layers, cfg.ModelDim, cfg.FFNDim, cfg.Heads = 16, 2, 128, 256, 4
		}
		g, err := models.MTDNN(cfg)
		return g, func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			return models.MTDNN(c)
		}, err
	case strings.HasPrefix(name, "resnet"):
		var depth int
		if _, err := fmt.Sscanf(name, "resnet%d", &depth); err != nil {
			return nil, nil, fmt.Errorf("bad model name %q", name)
		}
		cfg := models.DefaultResNet(depth)
		if small {
			cfg.ImageSize = 64
		}
		g, err := models.ResNet(cfg)
		return g, func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			return models.ResNet(c)
		}, err
	default:
		return nil, nil, fmt.Errorf("unknown model %q (duet-node serves widedeep, siamese, mtdnn, resnet*)", name)
	}
}
