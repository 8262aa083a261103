package alias

import "bdrmap/internal/netx"

// Book is the alias evidence one host network's vantage points share. An
// address's aliases, its IP-ID counter and the probes it answers belong to
// its router, not to the vantage point asking, so a question one VP
// settled need not be asked again by another (MIDAR resolves aliases once
// across many monitors for this reason).
//
// A book holds only what a resolver keeps for good: settled AliasYes and
// AliasNo verdicts, blind marks (an Ally round showed the address has no
// IP-ID counter) and positive answers (the methods an address replied to
// and the source of its UDP reply). It never holds silence or an Unknown
// verdict: a lost probe must not stand for a verdict.
//
// A resolver with a book consults it after its own evidence and before the
// wire (Resolver.Book), and records a book verdict that settles one of its
// own pairs into itself, so its graph holds exactly the pairs it raised.
// The book is written only by Learn, between stages; it is not safe for
// use while a resolver that consults it runs.
type Book struct {
	pos, neg map[pairKey]bool
	blind    map[netx.Addr]bool
	answers  map[netx.Addr]answer
}

// NewBook makes an empty book.
func NewBook() *Book {
	return &Book{
		pos:     make(map[pairKey]bool),
		neg:     make(map[pairKey]bool),
		blind:   make(map[netx.Addr]bool),
		answers: make(map[netx.Addr]answer),
	}
}

// Learn adds what r's stage settled: its verdicts, blind marks and
// answers.
func (b *Book) Learn(r *Resolver) {
	for k := range r.pos {
		b.pos[k] = true
	}
	for k := range r.neg {
		b.neg[k] = true
	}
	for a := range r.blind {
		b.blind[a] = true
	}
	for a, ans := range r.answers {
		have := b.answers[a]
		if have.methods&udpBit == 0 {
			have.udpFrom = ans.udpFrom
		}
		have.methods |= ans.methods
		b.answers[a] = have
	}
}

// verdict is the book's settled verdict on {a, b}; negative evidence
// dominates, as in Resolver.Verdict. A nil book knows nothing.
func (b *Book) verdict(x, y netx.Addr) Verdict {
	if b == nil {
		return Unknown
	}
	k := pkey(x, y)
	switch {
	case b.neg[k]:
		return AliasNo
	case b.pos[k]:
		return AliasYes
	default:
		return Unknown
	}
}

// answered returns what a answered through the book's resolvers.
func (b *Book) answered(a netx.Addr) answer {
	if b == nil {
		return answer{}
	}
	return b.answers[a]
}

func (b *Book) isBlind(a netx.Addr) bool { return b != nil && b.blind[a] }
