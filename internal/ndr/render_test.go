package ndr

import (
	"strings"
	"testing"
)

// replacerRender is the definition Render is held to: a strings.Replacer
// over every placeholder, built per reply.
func replacerRender(text string, p Params) string {
	return strings.NewReplacer(
		"{addr}", p.Addr,
		"{local}", p.Local,
		"{domain}", p.Domain,
		"{ip}", p.IP,
		"{mx}", p.MX,
		"{bl}", p.BL,
		"{vendor}", p.Vendor,
		"{sec}", p.Sec,
		"{size}", p.Size,
	).Replace(text)
}

// replacerSuccess is the definition RenderSuccess is held to: only
// {vendor} and {domain} are substituted.
func replacerSuccess(text string, p Params) string {
	return strings.NewReplacer("{vendor}", p.Vendor, "{domain}", p.Domain).Replace(text)
}

// renderParams are value sets the table test renders every template
// with: plain values, empty ones, and values that hold placeholders
// and stray braces, which must be copied, not rescanned.
var renderParams = []Params{
	{Addr: "a@b.com", Local: "a", Domain: "b.com", IP: "1.2.3.4",
		MX: "mx.b.com", BL: "Spamhaus", Vendor: "v123", Sec: "300", Size: "10485760"},
	{},
	{Addr: "{addr}", Local: "{local}{", Domain: "}{domain}", IP: "{ip",
		MX: "{{mx}}", BL: "{bl}}", Vendor: "{vendor}{size}", Sec: "{", Size: "}"},
}

// TestRenderMatchesReplacer holds Render over every catalog template,
// and RenderSuccess over every success reply, to the replacer.
func TestRenderMatchesReplacer(t *testing.T) {
	for _, p := range renderParams {
		for i := range Catalog {
			if got, want := Catalog[i].Render(p), replacerRender(Catalog[i].Text, p); got != want {
				t.Errorf("template %d with %+v:\n got  %q\n want %q", i, p, got, want)
			}
		}
		for i, text := range SuccessReplies {
			if got, want := RenderSuccess(i, p), replacerSuccess(text, p); got != want {
				t.Errorf("success reply %d with %+v:\n got  %q\n want %q", i, p, got, want)
			}
		}
	}
}

// FuzzRenderMatchesReplacer holds the one-pass expansion to the
// replacer for arbitrary template text and values.
func FuzzRenderMatchesReplacer(f *testing.F) {
	for _, tp := range Catalog {
		f.Add(tp.Text, "a@b.com", "b.com", "v1")
	}
	for _, text := range SuccessReplies {
		f.Add(text, "a@b.com", "b.com", "v1")
	}
	f.Add("550 {addr} {{addr}} {addr", "{addr}", "{domain}", "{vendor}")
	f.Add("{{{}}}{ip}{mx}{bl}{sec}{size}{local}", "}", "{", "{sec}")
	f.Add("{vendor}{domain}{addr}", "", "", "")
	f.Add("no placeholders at all", "x", "y", "z")
	f.Fuzz(func(t *testing.T, text, addr, domain, vendor string) {
		p := Params{Addr: addr, Local: vendor, Domain: domain, IP: addr + domain,
			MX: domain, BL: vendor, Vendor: vendor, Sec: "{sec}", Size: addr}
		tp := Template{Text: text}
		if got, want := tp.Render(p), replacerRender(text, p); got != want {
			t.Fatalf("Render(%q):\n got  %q\n want %q", text, got, want)
		}
	})
}
