package dist

import (
	"encoding/json"
	"io"
	"sync"
)

// The wire protocol is JSON Lines over the worker's stdin/stdout:
// coordinator → worker carries ctrlMsg, worker → coordinator carries
// workMsg. The channel is ordered and lossy only by death — a worker
// that dies mid-line tears the final message, which the decoder
// surfaces as an error and the coordinator treats as the death signal
// (stdout EOF is failure detection's fast path; heartbeats cover the
// hung-but-alive case).

// ctrlMsg is one coordinator → worker message.
type ctrlMsg struct {
	// Type is "init", "grant" or "shutdown".
	Type string `json:"type"`
	// Spec and Fingerprint arrive once, in init. The worker recomputes
	// the fingerprint from the spec and refuses a mismatch, so a
	// coordinator/worker version skew can never fold foreign numbers.
	Spec        json.RawMessage `json:"spec,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	// HeartbeatMS is the worker's heartbeat cadence (init).
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// Lease and Units name a grant: the worker executes the units in
	// ascending order and streams one result each; the coordinator ends
	// the lease when the last one folds.
	Lease int   `json:"lease"`
	Units []int `json:"units,omitempty"`
}

// workMsg is one worker → coordinator message.
type workMsg struct {
	// Type is "ready", "result", "heartbeat" or "error".
	Type string `json:"type"`
	// TotalUnits echoes the worker's expanded unit count in ready — a
	// second spec-agreement check besides the fingerprint.
	TotalUnits int `json:"total_units,omitempty"`
	// Lease and Unit identify a result; Vals carries the unit's flat
	// value vector.
	Lease int       `json:"lease"`
	Unit  int       `json:"unit"`
	Vals  []float64 `json:"vals,omitempty"`
	// Msg carries a fatal worker error.
	Msg string `json:"msg,omitempty"`
}

// msgWriter serializes JSONL encoding onto one writer: the worker's
// result stream and its heartbeat goroutine share stdout, and the
// coordinator's grants share each worker's stdin with shutdowns.
type msgWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newMsgWriter(w io.Writer) *msgWriter { return &msgWriter{enc: json.NewEncoder(w)} }

func (m *msgWriter) send(v any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enc.Encode(v)
}
