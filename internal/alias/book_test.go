package alias

import (
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// bookTap is a second VP's probe source that checks every probe against
// the book its resolver consults: an ask (a probe outside an Ally
// sequence) must not ask what the book already holds an answer to.
type bookTap struct {
	probe.Source
	t     *testing.T
	r     *Resolver
	ally  int // r.sent.Ally as of the previous probe
	sent  int
	asked int // asks whose method the book held for some other address
}

func (tp *bookTap) Probe(a netx.Addr, m probe.Method) probe.Response {
	tp.sent++
	if tp.r.sent.Ally == tp.ally {
		if tp.r.Book.answered(a).methods&(1<<m) != 0 {
			tp.t.Errorf("asked %v %v, which the book answers", a, m)
		}
		tp.asked++
	}
	tp.ally = tp.r.sent.Ally
	return tp.Source.Probe(a, m)
}

// TestBookedQuestionsSendNoProbe: a resolver with a book sends no probe for
// what the book holds. Over interface pairs of large-access routers
// (aliases and neighbours), VP 0 resolves a share first and its evidence
// fills the book; VP 1 then resolves them all. It asks nothing the book answered, tests no pair the book
// holds a verdict on and runs no Ally round on a pair with a blind address.
func TestBookedQuestionsSendNoProbe(t *testing.T) {
	n := topo.Generate(topo.LargeAccessProfile(), 1)
	e := probe.New(n, bgp.NewTable(n))
	vp0, vp1 := n.VPs[0], n.VPs[1]
	var addrs []netx.Addr
	var pairs [][2]netx.Addr
	for _, r := range n.Routers {
		var mine []netx.Addr
		for _, ifc := range r.Ifaces {
			if a := ifc.Addr; !a.IsZero() && e.Reachable(vp0, a) && e.Reachable(vp1, a) {
				mine = append(mine, a)
			}
		}
		for i := 1; i < len(mine); i++ {
			pairs = append(pairs, [2]netx.Addr{mine[i-1], mine[i]})
		}
		if len(mine) > 0 && len(addrs) > 0 {
			pairs = append(pairs, [2]netx.Addr{addrs[len(addrs)-1], mine[0]})
		}
		addrs = append(addrs, mine...)
		if len(pairs) >= 400 {
			break
		}
	}
	// VP 0 sweeps every third address and resolves every other pair, so
	// VP 1 finds some questions in the book and asks the rest.
	resolve := func(r *Resolver, sweepEvery, pairEvery int, check func(a, b netx.Addr, pair func())) {
		for i, a := range addrs {
			if i%sweepEvery == 0 {
				r.UDPSource(a)
			}
		}
		for i, p := range pairs {
			if i%pairEvery == 0 {
				check(p[0], p[1], func() { r.Resolve(p[0], p[1]) })
			}
		}
	}
	r0 := NewResolver(e.NewLane(vp0, 0), Config{})
	resolve(r0, 3, 2, func(_, _ netx.Addr, pair func()) { pair() })
	book := NewBook()
	book.Learn(r0)

	r1 := NewResolver(nil, Config{})
	r1.Book = book
	tap := &bookTap{Source: e.NewLane(vp1, 0), t: t, r: r1}
	r1.Src = tap
	settled, blind := 0, 0
	resolve(r1, 1, 1, func(a, b netx.Addr, pair func()) {
		sent, ally := tap.sent, r1.sent.Ally
		pair()
		switch {
		case book.verdict(a, b) != Unknown:
			settled++
			if tap.sent != sent {
				t.Errorf("pair %v|%v: %d probes for a verdict the book holds", a, b, tap.sent-sent)
			}
		case book.isBlind(a) || book.isBlind(b):
			blind++
			if r1.sent.Ally != ally {
				t.Errorf("pair %v|%v: Ally probed an address the book holds blind", a, b)
			}
		}
	})
	t.Logf("%d addresses, %d pairs: the book settled %d and held %d blind; VP 1 sent %d probes (%d asks), book hits %d",
		len(addrs), len(pairs), settled, blind, tap.sent, tap.asked, r1.BookHits())
	if settled == 0 || blind == 0 || r1.BookHits() <= settled || tap.asked == 0 {
		t.Errorf("the book settled %d pairs, held %d blind and answered %d sweep asks: a kind went unexercised",
			settled, blind, r1.BookHits()-settled)
	}
}
