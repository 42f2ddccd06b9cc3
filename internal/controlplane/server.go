package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// Server maps the simulation's virtual clock onto the wall clock and
// serializes operator commands into it. One goroutine (the drive loop)
// owns the engine: it alternates short RunUntil slices with draining a
// command channel, so an HTTP handler never touches the single-threaded
// stack directly — it posts a closure and waits. With Rate > 0 each
// virtual quantum is throttled to quantum/Rate of wall time ("run the
// day at 60×"); with Rate == 0 the simulation free-runs as fast as the
// host executes events, still draining commands between slices.
type Server struct {
	cp  *ControlPlane
	rem *Remediator
	cfg ServerConfig

	cmds    chan func()
	stopc   chan struct{}
	stopped chan struct{} // closed when the drive loop has exited
	err     error
}

// ServerConfig tunes the drive loop.
type ServerConfig struct {
	// Rate is the virtual-to-wall speedup (2 = twice real time). Zero
	// free-runs: no throttle, maximum simulation speed.
	Rate float64
	// Quantum is the virtual time advanced per drive slice. Commands
	// are only served between slices, so this bounds operator latency
	// in virtual time. Default 100ms.
	Quantum sim.Duration
}

// ErrServerStopped is returned by Do after Stop (or a drive failure).
var ErrServerStopped = errors.New("controlplane: server stopped")

// NewServer wraps cp. rem may be nil (no remediation endpoint).
func NewServer(cp *ControlPlane, rem *Remediator, cfg ServerConfig) *Server {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * sim.Millisecond
	}
	return &Server{
		cp:      cp,
		rem:     rem,
		cfg:     cfg,
		cmds:    make(chan func()),
		stopc:   make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// Start launches the drive goroutine.
func (s *Server) Start() { go s.drive() }

// Stop halts the drive loop and waits for it to exit. Idempotent.
func (s *Server) Stop() {
	select {
	case <-s.stopc:
	default:
		close(s.stopc)
	}
	<-s.stopped
}

// Err reports a drive-loop failure (nil on clean stop).
func (s *Server) Err() error { return s.err }

// Do runs fn on the drive goroutine, between engine slices, and waits
// for it. This is the only safe way to touch the ControlPlane (or
// anything beneath it) while the server is running.
func (s *Server) Do(fn func()) error {
	done := make(chan struct{})
	wrapped := func() { fn(); close(done) }
	select {
	case s.cmds <- wrapped:
	case <-s.stopped:
		return ErrServerStopped
	}
	select {
	case <-done:
		return nil
	case <-s.stopped:
		return ErrServerStopped
	}
}

// drive owns the engine: slices of RunUntil, commands in between, and
// an optional wall-clock throttle.
func (s *Server) drive() {
	defer close(s.stopped)
	eng := s.cp.cfg.Engine
	for {
		// Commands and stop take priority over advancing time.
		select {
		case <-s.stopc:
			return
		case fn := <-s.cmds:
			fn()
			continue
		default:
		}
		start := time.Now()
		target := eng.Now() + sim.Time(s.cfg.Quantum)
		// A tick pinned at the target makes the clock reach it even
		// when the event queue drains early — RunUntil alone leaves
		// the clock at the last event, which would stall wall-time
		// mapping on an idle cluster.
		eng.At(target, func() {})
		if err := eng.RunUntil(target); err != nil && !errors.Is(err, sim.ErrStopped) {
			s.err = err
			return
		}
		if s.cfg.Rate > 0 {
			wall := time.Duration(float64(s.cfg.Quantum) / s.cfg.Rate)
			deadline := time.NewTimer(wall - time.Since(start))
			throttled := true
			for throttled {
				select {
				case <-s.stopc:
					deadline.Stop()
					return
				case fn := <-s.cmds:
					fn()
				case <-deadline.C:
					throttled = false
				}
			}
		}
	}
}

// --- HTTP surface -----------------------------------------------------

// Handler returns the HTTP/JSON operator API:
//
//	GET  /v1/status                 cluster summary
//	GET  /v1/nodes                  workstation census
//	GET  /v1/nodes/{id}             one workstation
//	POST /v1/nodes/{id}/cordon      mark unschedulable
//	POST /v1/nodes/{id}/uncordon    clear cordon/drain, wake scheduler
//	POST /v1/nodes/{id}/drain       evacuate (async; poll drained flag)
//	GET  /v1/storage                xFS node census
//	POST /v1/storage/{id}/drain     hand off roles, remove, rebuild (async)
//	POST /v1/faults                 {"line":"crash 5 for 30s"} live inject
//	GET  /v1/metrics                obs metrics (stable JSON)
//	GET  /v1/spans?after=N          spans started after span id N
//	POST /v1/remediate              {"enabled":true|false}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		var st ClusterStatus
		s.reply(w, func() { st = s.cp.Status() }, func() any { return st })
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, _ *http.Request) {
		var ns []NodeStatus
		s.reply(w, func() { ns = s.cp.Nodes() }, func() any { return ns })
	})
	mux.HandleFunc("GET /v1/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		var (
			st  NodeStatus
			err error
		)
		s.replyErr(w, func() { st, err = s.cp.Node(id) }, &err, func() any { return st })
	})
	mux.HandleFunc("POST /v1/nodes/{id}/cordon", func(w http.ResponseWriter, r *http.Request) {
		s.nodeAction(w, r, s.cp.Cordon, "cordoned")
	})
	mux.HandleFunc("POST /v1/nodes/{id}/uncordon", func(w http.ResponseWriter, r *http.Request) {
		s.nodeAction(w, r, s.cp.Uncordon, "uncordoned")
	})
	mux.HandleFunc("POST /v1/nodes/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		s.nodeAction(w, r, s.cp.DrainAsync, "draining")
	})
	mux.HandleFunc("GET /v1/storage", func(w http.ResponseWriter, _ *http.Request) {
		var st []StoreStatus
		s.reply(w, func() { st = s.cp.Storage() }, func() any { return st })
	})
	mux.HandleFunc("POST /v1/storage/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		s.nodeAction(w, r, s.cp.DrainStorageAsync, "draining")
	})
	mux.HandleFunc("POST /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Line string `json:"line"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		var err error
		s.replyErr(w, func() { err = s.cp.InjectLine(body.Line) }, &err,
			func() any { return map[string]string{"status": "scheduled"} })
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		var err error
		if doErr := s.Do(func() {
			s.cp.snapshots.Inc()
			err = s.cp.cfg.Registry.WriteMetricsJSON(&buf)
		}); doErr != nil {
			httpError(w, http.StatusServiceUnavailable, doErr)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes()) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		var after obs.SpanID
		if v := r.URL.Query().Get("after"); v != "" {
			// Span ids are int32: a wider value is an error, not a wrap.
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			after = obs.SpanID(n)
		}
		var spans []obs.Span
		s.reply(w, func() { spans = s.cp.SpansSince(after) },
			func() any {
				if spans == nil {
					return []obs.Span{}
				}
				return spans
			})
	})
	mux.HandleFunc("POST /v1/remediate", func(w http.ResponseWriter, r *http.Request) {
		if s.rem == nil {
			httpError(w, http.StatusNotFound, errors.New("no remediator attached"))
			return
		}
		var body struct {
			Enabled bool `json:"enabled"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		s.reply(w, func() { s.rem.SetEnabled(body.Enabled) },
			func() any { return map[string]bool{"enabled": body.Enabled} })
	})
	return mux
}

// maxBodyBytes bounds a command body; the largest real one is a single
// fault-plan line.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v, answering 413 past
// maxBodyBytes and 400 on bad JSON; it reports whether to go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err)
	}
	return err == nil
}

// nodeAction runs one id-taking command and answers {"status": okWord}.
func (s *Server) nodeAction(w http.ResponseWriter, r *http.Request, fn func(int) error, okWord string) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var err error
	s.replyErr(w, func() { err = fn(id) }, &err,
		func() any { return map[string]string{"status": okWord} })
}

// reply serializes fn through Do and writes render() as JSON.
func (s *Server) reply(w http.ResponseWriter, fn func(), render func() any) {
	if err := s.Do(fn); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, render())
}

// replyErr is reply for commands that can fail domain-side.
func (s *Server) replyErr(w http.ResponseWriter, fn func(), errp *error, render func() any) {
	if err := s.Do(fn); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if *errp != nil {
		httpError(w, http.StatusBadRequest, *errp)
		return
	}
	writeJSON(w, render())
}

func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
