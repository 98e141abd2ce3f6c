// Package dataset defines the email-delivery record schema of the
// paper's Figure 3 and its JSONL serialization, plus the InEmailRank
// popularity list built from incoming-email counts per receiver domain.
// Every downstream analysis consumes only these records — the same
// inference constraint the paper worked under.
package dataset

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// TimeLayout is the timestamp format of Figure 3.
const TimeLayout = "2006-01-02 15:04:05"

// Record is one email's complete delivery history: parallel slices hold
// one entry per delivery attempt.
type Record struct {
	From      string    // sender address
	To        string    // receiver address
	StartTime time.Time // first attempt start
	EndTime   time.Time // last attempt end

	FromIP          []string // proxy MTA IP per attempt
	ToIP            []string // receiver MTA IP per attempt ("" if never connected)
	DeliveryResult  []string // NDR / acceptance line per attempt
	DeliveryLatency []int64  // per-attempt latency in milliseconds
	EmailFlag       string   // "Normal" or "Spam" (sender-ESP verdict)
}

// Attempts returns the number of delivery attempts.
func (r *Record) Attempts() int { return len(r.DeliveryResult) }

// FinalResult returns the last delivery_result line ("" if none).
func (r *Record) FinalResult() string {
	if len(r.DeliveryResult) == 0 {
		return ""
	}
	return r.DeliveryResult[len(r.DeliveryResult)-1]
}

// Succeeded reports whether the final attempt was accepted (2xx).
func (r *Record) Succeeded() bool {
	return strings.HasPrefix(r.FinalResult(), "2")
}

// ToDomain returns the receiver domain (lowercased part after '@').
func (r *Record) ToDomain() string { return domainOf(r.To) }

// FromDomain returns the sender domain.
func (r *Record) FromDomain() string { return domainOf(r.From) }

func domainOf(addr string) string {
	// One backward scan finds the '@' and sees that the domain is
	// lower-case ASCII already — true of all but a few addresses — so
	// the common case is a substring and no second pass.
	for i := len(addr) - 1; i >= 0; i-- {
		switch c := addr[i]; {
		case c == '@':
			return addr[i+1:]
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z':
			if at := strings.LastIndexByte(addr[:i], '@'); at >= 0 {
				return strings.ToLower(addr[at+1:])
			}
			return ""
		}
	}
	return ""
}

// Degree is the paper's bounce degree.
type Degree int

// Bounce degrees (Section 2.2).
const (
	NonBounced  Degree = iota // success on the first attempt
	SoftBounced               // success after ≥1 failed attempt
	HardBounced               // never succeeded
)

// String returns the paper's name for the degree.
func (d Degree) String() string {
	switch d {
	case NonBounced:
		return "non-bounced"
	case SoftBounced:
		return "soft-bounced"
	case HardBounced:
		return "hard-bounced"
	}
	return "?"
}

// BounceDegree classifies the record per Section 2.2: success on first
// attempt = non-bounced; eventual success = soft-bounced; otherwise
// hard-bounced.
func (r *Record) BounceDegree() Degree {
	if len(r.DeliveryResult) == 0 {
		return HardBounced
	}
	if strings.HasPrefix(r.DeliveryResult[0], "2") {
		return NonBounced
	}
	if r.Succeeded() {
		return SoftBounced
	}
	return HardBounced
}

// NDRs returns the non-2xx delivery_result lines (one per failed
// attempt) — the classifier's input.
func (r *Record) NDRs() []string {
	var out []string
	for _, line := range r.DeliveryResult {
		if !strings.HasPrefix(line, "2") {
			out = append(out, line)
		}
	}
	return out
}

// jsonRecord is the Figure-3 wire form.
type jsonRecord struct {
	From            string   `json:"from"`
	To              string   `json:"to"`
	StartTime       string   `json:"start_time"`
	EndTime         string   `json:"end_time"`
	FromIP          []string `json:"from_ip"`
	ToIP            []string `json:"to_ip"`
	DeliveryResult  []string `json:"delivery_result"`
	DeliveryLatency []int64  `json:"delivery_latency"`
	EmailFlag       string   `json:"email_flag"`
}

// MarshalJSON renders the Figure-3 JSON object (see AppendJSON).
func (r Record) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, r.jsonSize())), nil
}

// UnmarshalJSON parses the Figure-3 JSON object.
func (r *Record) UnmarshalJSON(b []byte) error {
	var j jsonRecord
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	start, err := time.Parse(TimeLayout, j.StartTime)
	if err != nil {
		return fmt.Errorf("dataset: bad start_time %q: %w", j.StartTime, err)
	}
	end, err := time.Parse(TimeLayout, j.EndTime)
	if err != nil {
		return fmt.Errorf("dataset: bad end_time %q: %w", j.EndTime, err)
	}
	*r = Record{
		From: j.From, To: j.To,
		StartTime: start.UTC(), EndTime: end.UTC(),
		FromIP: j.FromIP, ToIP: j.ToIP,
		DeliveryResult: j.DeliveryResult, DeliveryLatency: j.DeliveryLatency,
		EmailFlag: j.EmailFlag,
	}
	return nil
}
