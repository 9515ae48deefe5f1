package frontdoor

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// Response is the HTTP ingress's JSON reply.
type Response struct {
	Outcome string  `json:"outcome"`
	Reason  string  `json:"reason,omitempty"`
	WaitMS  float64 `json:"wait_ms"`
	// LatencyMS is submit-to-completion (admitted queries only).
	// Fractional: sub-millisecond queries must not report zero.
	LatencyMS   float64 `json:"latency_ms,omitempty"`
	DeadlineMet bool    `json:"deadline_met,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func responseFrom(d Disposition) Response {
	resp := Response{
		Outcome:     d.Outcome.String(),
		Reason:      d.Reason,
		WaitMS:      float64(d.Wait) / float64(time.Millisecond),
		LatencyMS:   float64(d.Latency) / float64(time.Millisecond),
		DeadlineMet: d.DeadlineMet,
	}
	if d.Err != nil {
		resp.Error = d.Err.Error()
	}
	return resp
}

// Handler returns the HTTP ingress: POST a JSON Request to it and the
// reply arrives once the query reaches a terminal state (admitted
// queries answer after execution). A client that disconnects while
// queued has its query cancelled — dead clients must not hold queue
// slots.
func (fd *FrontDoor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a query request", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		q, err := DecodeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ticket, err := fd.Submit(q)
		if err != nil {
			// Rejected: the disposition is already buffered.
			writeResponse(w, http.StatusTooManyRequests, responseFrom(<-ticket.Done()))
			return
		}
		select {
		case d := <-ticket.Done():
			status := http.StatusOK
			if d.Outcome != OutcomeAdmitted {
				status = http.StatusTooManyRequests
			}
			writeResponse(w, status, responseFrom(d))
		case <-r.Context().Done():
			ticket.Cancel()
			// The cancel races a concurrent admit; report whichever won.
			writeResponse(w, http.StatusRequestTimeout, responseFrom(<-ticket.Done()))
		}
	})
}

func writeResponse(w http.ResponseWriter, status int, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}
