// Bidder network (Figure 10 of the paper): over XMark-style auction data,
// recursively connect sellers to the bidders of their auctions, one
// inflationary fixed point per person. The example contrasts Naïve and
// Delta on both engines — the Table 2 experiment in miniature.
package main

import (
	"fmt"
	"log"
	"time"

	ifpxq "repro"
	"repro/internal/xmlgen"
)

const query = `
declare variable $doc := doc("auction.xml");
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
for $p in $doc//people/person
return <person>{ $p/@id }{ count(with $x seeded by $p recurse bidder($x)) }</person>`

func main() {
	xml := xmlgen.Auction(xmlgen.AuctionConfig{
		People: 60, OpenAuctions: 40, MaxBiddersPerAuction: 5, Seed: 42,
	})
	docs := ifpxq.DocsFromStrings(map[string]string{"auction.xml": xml})
	q, err := ifpxq.Parse(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction document: %d bytes\n", len(xml))

	for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeDelta} {
		for _, engine := range []ifpxq.Engine{ifpxq.EngineInterpreter, ifpxq.EngineRelational} {
			start := time.Now()
			res, err := q.Eval(ifpxq.Options{Engine: engine, Mode: mode, Docs: docs})
			if err != nil {
				log.Fatal(err)
			}
			var fed int64
			var depth int
			for _, fp := range res.Fixpoints {
				fed += fp.Stats.NodesFedBack
				if fp.Stats.Depth > depth {
					depth = fp.Stats.Depth
				}
			}
			fmt.Printf("%-6v %-5v: %4d persons, %7d nodes fed back, depth %2d, %v\n",
				engine, mode, res.Count(), fed, depth, time.Since(start).Round(time.Millisecond))
		}
	}
}
