package registrar

import (
	"testing"
	"time"
)

var (
	t0 = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	t2 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	t3 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
)

func TestAvailability(t *testing.T) {
	r := NewRegistry()
	r.Register("expired.com", "OldCorp", t0, t1, true)
	if r.Available("expired.com", t0.AddDate(0, 6, 0)) {
		t.Error("registered domain reported available")
	}
	if !r.Available("expired.com", t1.AddDate(0, 1, 0)) {
		t.Error("expired domain reported unavailable")
	}
	if !r.Available("never-seen.com", t0) {
		t.Error("unknown domain should be available")
	}
}

func TestOpenEndedRegistration(t *testing.T) {
	r := NewRegistry()
	r.Register("alive.com", "Corp", t0, time.Time{}, true)
	if r.Available("alive.com", t3) {
		t.Error("open-ended registration should never expire")
	}
}

func TestWHOISHistoryAndRegistrantChange(t *testing.T) {
	r := NewRegistry()
	r.Register("squat.com", "LegitPublisher", t0, t1, true)
	r.Register("squat.com", "NewRegistrant", t2, time.Time{}, true)

	hist := r.WHOISHistory("squat.com")
	if len(hist) != 2 {
		t.Fatalf("history length %d", len(hist))
	}
	changed, ok := r.RegistrantChanged("squat.com", t0.AddDate(0, 1, 0), t2.AddDate(0, 1, 0))
	if !ok || !changed {
		t.Errorf("registrant change not detected: changed=%v ok=%v", changed, ok)
	}

	// Same registrant re-registering: unchanged.
	r2 := NewRegistry()
	r2.Register("renewed.com", "Same", t0, t1, true)
	r2.Register("renewed.com", "Same", t2, time.Time{}, true)
	changed, ok = r2.RegistrantChanged("renewed.com", t0.AddDate(0, 1, 0), t2.AddDate(0, 1, 0))
	if !ok || changed {
		t.Errorf("same registrant flagged as changed: changed=%v ok=%v", changed, ok)
	}

	// Gap with no registration: not ok.
	if _, ok := r.RegistrantChanged("squat.com", t1.AddDate(0, 1, 0), t2.AddDate(0, 1, 0)); ok {
		t.Error("change query over unregistered window should not be ok")
	}
}

func TestCurrentRegistration(t *testing.T) {
	r := NewRegistry()
	r.Register("x.com", "A", t0, t1, false)
	reg, ok := r.CurrentRegistration("X.COM", t0.AddDate(0, 3, 0))
	if !ok || reg.Registrant != "A" || reg.HasMX {
		t.Errorf("CurrentRegistration = %+v ok=%v", reg, ok)
	}
	if _, ok := r.CurrentRegistration("x.com", t2); ok {
		t.Error("expired tenure should not be current")
	}
}

func TestUsernameStates(t *testing.T) {
	u := NewUsernameRegistry("freemail.example", false)
	u.SetState("alice", UserActive)
	u.SetState("bob", UserFrozen)
	u.SetState("admin", UserReserved)
	u.SetState("carol", UserRecycled)

	if u.State("alice") != UserActive || u.State("bob") == UserActive || u.State("ghost") == UserActive {
		t.Error("active-state mismatch")
	}
	// The paper's distinction: non-existent ≠ registrable.
	cases := map[string]bool{
		"alice": false, // active
		"bob":   false, // frozen: NDR says no such user, UI refuses
		"admin": false, // reserved
		"carol": false, // recycled but provider does not recycle
		"ghost": true,  // never registered
	}
	for name, want := range cases {
		if got := u.Registrable(name); got != want {
			t.Errorf("Registrable(%s)=%v want %v", name, got, want)
		}
	}
}

func TestYahooStyleRecycling(t *testing.T) {
	u := NewUsernameRegistry("yahoo-like.example", true)
	u.SetState("olduser", UserRecycled)
	if !u.Registrable("olduser") {
		t.Error("recycling provider should release recycled usernames")
	}
}

func TestUsernameCaseInsensitive(t *testing.T) {
	u := NewUsernameRegistry("p", false)
	u.SetState("Alice", UserActive)
	if u.State("alice") != UserActive || u.State("ALICE") != UserActive {
		t.Error("username lookup should be case-insensitive")
	}
}
