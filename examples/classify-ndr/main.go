// classify-ndr: use the Section-3.2 methodology on a raw NDR corpus —
// mine templates with Drain, label the top templates, train the EBRC,
// and classify previously unseen bounce messages, including the
// ambiguous Table-6 lines that must be recognized and excluded.
package main

import (
	"fmt"

	"repro"
	"repro/internal/analysis"
	"repro/internal/ndr"
)

func main() {
	// Build a corpus the honest way: deliver a tiny world and keep only
	// what a postmaster sees — the NDR strings.
	fmt.Println("building an NDR corpus from a tiny simulated world...")
	study := bounce.Run(bounce.Options{Scale: bounce.ScaleTiny})
	lines := 0
	for i := 0; i < study.Records.Len(); i++ {
		lines += len(study.Records.At(i).NDRs())
	}

	p := study.Analysis.Pipeline
	labeled, coverage := p.ManualLabelStats()
	fmt.Printf("corpus: %d NDR lines -> %d Drain templates; top %d labeled (%.1f%% coverage)\n\n",
		lines, p.NumTemplates(), labeled, coverage*100)

	// Classify fresh lines an operator might paste in.
	samples := []string{
		"550-5.1.1 jun@b.com Email address could not be found, or was misspelled (g-1991)",
		"452-4.2.2 The email account that you tried to reach is over quota",
		"554 Service unavailable; Client host [203.0.113.9] blocked using Spamhaus",
		"450 4.7.1 Greylisted, please try again in 300 seconds",
		"421 4.4.1 [internal] Connection timed out while talking to mx7.example.net",
		"550-5.7.26 This message does not have authentication information or fails to pass authentication checks (SPF or DKIM)",
		"550 5.4.1 Recipient address rejected: Access denied. AS(201806281) [x99]",
	}
	fmt.Println("classifying fresh NDR lines:")
	for _, line := range samples {
		typ, ambiguous := p.ClassifyLine(line)
		tag := typ.String()
		if ambiguous {
			tag = "AMBIGUOUS (excluded, Table 6)"
		}
		fmt.Printf("  %-32s <- %s\n", tag+" ("+describe(typ, ambiguous)+")", clip(line, 80))
	}

	// Show the mined ambiguous templates, Table-6 style.
	fmt.Println("\nmined ambiguous templates:")
	for i, t := range study.Analysis.Pipeline.AmbiguousTemplates() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %6d  %s\n", t.Count, clip(t.Template, 80))
	}
	_ = analysis.DefaultPipelineConfig() // the pipeline parameters are tunable; see docs
}

func describe(t ndr.Type, ambiguous bool) string {
	if ambiguous {
		return "unclear meaning"
	}
	return t.Description()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
