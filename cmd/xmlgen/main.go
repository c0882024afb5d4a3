// Command xmlgen generates the synthetic workloads of the paper's
// evaluation: XMark-style auction data, curriculum and hospital instances,
// and play markup (EXPERIMENTS.md, "Faithfulness notes", documents the
// substitutions).
//
// Usage:
//
//	xmlgen -kind auction -scale 0.01 > auction.xml
//	xmlgen -kind curriculum -n 800 > curriculum.xml
//	xmlgen -kind hospital -n 50000 > hospital.xml
//	xmlgen -kind play > play.xml
//
// With -snapshot the generated document is parsed and written as an arena
// snapshot (internal/store format) instead, ready for xq -store / xqd:
//
//	xmlgen -kind auction -scale 0.01 -snapshot store/auction.xml.xqs
//	xmlgen -kind play -xml store/play.xml -snapshot store/play.xml.xqs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/store"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

func main() {
	var (
		kind     = flag.String("kind", "auction", "auction | curriculum | hospital | play")
		scale    = flag.Float64("scale", 0.01, "XMark-style scale factor (auction)")
		n        = flag.Int("n", 800, "size: courses (curriculum) or patient records (hospital)")
		seed     = flag.Int64("seed", 42, "generator seed")
		snapshot = flag.String("snapshot", "", "write an arena snapshot (.xqs) to this path instead of printing XML")
		xmlOut   = flag.String("xml", "", "with -snapshot: also write the XML text to this path")
	)
	flag.Parse()
	var out string
	switch *kind {
	case "auction":
		cfg := xmlgen.FromScale(*scale)
		cfg.Seed = *seed
		out = xmlgen.Auction(cfg)
	case "curriculum":
		cfg := xmlgen.CurriculumSized(*n)
		cfg.Seed = *seed
		out = xmlgen.Curriculum(cfg)
	case "hospital":
		cfg := xmlgen.HospitalSized(*n)
		cfg.Seed = *seed
		out = xmlgen.Hospital(cfg)
	case "play":
		cfg := xmlgen.PlaySized()
		cfg.Seed = *seed
		out = xmlgen.Play(cfg)
	default:
		fmt.Fprintf(os.Stderr, "xmlgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *snapshot == "" {
		if *xmlOut != "" {
			fatalIf(os.WriteFile(*xmlOut, []byte(out), 0o644))
			return
		}
		fmt.Print(out)
		return
	}
	// The document URI is the snapshot's base name without the .xqs
	// extension — exactly what a Store serving that directory resolves.
	uri := strings.TrimSuffix(filepath.Base(*snapshot), store.Ext)
	doc, err := xmldoc.ParseString(out, uri)
	fatalIf(err)
	fatalIf(store.Save(*snapshot, doc))
	if *xmlOut != "" {
		fatalIf(os.WriteFile(*xmlOut, []byte(out), 0o644))
	}
	st := doc.Stats()
	fmt.Fprintf(os.Stderr, "xmlgen: wrote %s: %d nodes, %d KiB arena (XML %d KiB)\n",
		*snapshot, st.Nodes, st.ArenaBytes/1024, len(out)/1024)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlgen:", err)
		os.Exit(1)
	}
}
