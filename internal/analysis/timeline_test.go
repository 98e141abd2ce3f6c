package analysis

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// TestTimelineAddAllocatesNothing: the timeline keys a month by number,
// so a record in a month it has already seen costs no string.
func TestTimelineAddAllocatesNothing(t *testing.T) {
	tc := newTimelineCollector()
	r := rec("a@s.com", "b@ok.com", clock.StudyStart.Add(30*time.Hour), "250 2.0.0 OK")
	var c ClassifiedRecord
	c.setFacts(&r)
	tc.Add(&r, &c)
	if n := testing.AllocsPerRun(100, func() { tc.Add(&r, &c) }); n != 0 {
		t.Errorf("timelineCollector.Add allocates %v times in a seen month, want 0", n)
	}
}

// TestTimelineMonthNames: a month's name is clock.MonthKey's, in any
// zone and for years of any width, and reads back to the same month;
// a name MonthKey would never write does not read.
func TestTimelineMonthNames(t *testing.T) {
	east := time.FixedZone("UTC+8", 8*3600)
	for _, at := range []time.Time{
		clock.StudyStart, clock.StudyEnd, time.Date(2023, 1, 31, 20, 0, 0, 0, time.UTC).In(east),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(999, 12, 1, 0, 0, 0, 0, time.UTC),
		time.Date(12345, 6, 1, 0, 0, 0, 0, time.UTC), time.Date(-7, 3, 1, 0, 0, 0, 0, time.UTC),
	} {
		ym := monthOf(at)
		if got, want := ym.String(), clock.MonthKey(at); got != want {
			t.Errorf("month of %v is named %q, MonthKey says %q", at, got, want)
		}
		if back, ok := parseYearMonth(ym.String()); !ok || back != ym {
			t.Errorf("%q reads back as %v %v, want %v", ym.String(), back, ok, ym)
		}
	}
	for _, name := range []string{"", "2022", "2022-1", "2022-00", "2022-13", "+2022-01", "22-01", "2022-01 ", "2022_01"} {
		if ym, ok := parseYearMonth(name); ok {
			t.Errorf("%q reads as %v", name, ym)
		}
	}
}
