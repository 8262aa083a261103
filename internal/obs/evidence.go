package obs

import (
	"encoding/binary"
	"strconv"
	"unsafe"

	"bdrmap/internal/netx"
)

// This file is the write side of the provenance stream: the closed
// vocabulary the pipeline's emit sites speak, and the pointer-free record a
// Tracer stores for one event. An emit site states typed values — an
// address, an AS number, a hop list — and no text is built until somebody
// reads the stream (render, below, is the only place a value becomes a
// string), so a run whose provenance nobody inspects never pays for prose
// about it. DESIGN.md, "Decision provenance", tabulates which emit site
// uses which key with which value kind.

// Kind is an event type. Each belongs to one pipeline stage.
type Kind uint8

// Event kinds, grouped by the stage that emits them.
const (
	KindTarget     Kind = iota + 1 // probe: a target AS's schedule starts
	KindTargetLost                 // probe: the session died or the target timed out
	KindTrace                      // probe: one traceroute, live or replayed
	KindStopsetHit                 // probe: a trace halted on the stop set
	KindStopsetAdd                 // probe: first external hop joined the stop set
	KindMercator                   // alias: common-source verdict
	KindAlly                       // alias: shared IP-ID counter verdict
	KindMerge                      // core: §5.4.7 analytical alias
	KindDecision                   // core: a router or silent neighbor attributed
	numKinds
)

var kindNames = [numKinds]struct{ stage, name string }{
	KindTarget:     {StageProbe, "target"},
	KindTargetLost: {StageProbe, "target-lost"},
	KindTrace:      {StageProbe, "trace"},
	KindStopsetHit: {StageProbe, "stopset-hit"},
	KindStopsetAdd: {StageProbe, "stopset-add"},
	KindMercator:   {StageAlias, "mercator"},
	KindAlly:       {StageAlias, "ally"},
	KindMerge:      {StageCore, "merge"},
	KindDecision:   {StageCore, "decision"},
}

// Key names one piece of evidence. The zero Key marks an absent Field.
type Key uint8

// Evidence keys, in the order their emit sites appear in the pipeline.
const (
	keySubject Key = iota + 1 // what the event is about: its first field
	// scamper: probing schedule and alias sweep.
	KeyBlocks
	KeyTarget
	KeyHops
	KeyPath
	KeyReached
	KeyStopped
	KeyCached
	KeyAt
	KeyDst
	KeyFrom
	KeyVerdict
	// alias: pair tests.
	KeyMethod
	KeyRound
	KeyRounds
	KeyIPIDs // volatile
	// core: the constraint set of every decision, then per-rule evidence.
	KeyHeuristic
	KeyOwner
	KeyHop
	KeyClass
	KeyAddrs
	KeyOriginAS
	KeyRel
	KeyDeclined
	KeyNear
	KeyOnlyDest
	KeyHostSuccessor
	KeyEgressFanout
	KeyLastHopToward
	KeyCommonProviderOfDests
	KeyAdjacentSameASIfaces
	KeyConsecutiveAS
	KeyConeRoot
	KeyAddrOwnerProvides
	KeyAdjacentAS
	KeySiblingHit
	KeyAdjacentOrigins
	KeyWinnerIfaces
	KeyMerged
	KeyVia
	numKeys
)

// keyNames is the exported spelling of each key; '~' marks the volatile
// ones (see Attr).
var keyNames = [numKeys]string{
	KeyBlocks: "blocks", KeyTarget: "target", KeyHops: "hops", KeyPath: "path",
	KeyReached: "reached", KeyStopped: "stopped",
	KeyCached: "cached", KeyAt: "at", KeyDst: "dst", KeyFrom: "from", KeyVerdict: "verdict",
	KeyMethod: "method", KeyRound: "round", KeyRounds: "rounds", KeyIPIDs: "~ipids",
	KeyHeuristic: "heuristic", KeyOwner: "owner", KeyHop: "hop", KeyClass: "class",
	KeyAddrs: "addrs", KeyOriginAS: "origin_as", KeyRel: "rel", KeyDeclined: "declined",
	KeyNear: "near", KeyOnlyDest: "only_dest", KeyHostSuccessor: "host_successor",
	KeyEgressFanout: "egress_fanout", KeyLastHopToward: "last_hop_toward",
	KeyCommonProviderOfDests: "common_provider_of_dests",
	KeyAdjacentSameASIfaces:  "adjacent_same_as_ifaces",
	KeyConsecutiveAS:         "consecutive_as", KeyConeRoot: "cone_root",
	KeyAddrOwnerProvides: "addr_owner_provides", KeyAdjacentAS: "adjacent_as",
	KeySiblingHit: "sibling_hit", KeyAdjacentOrigins: "adjacent_origins",
	KeyWinnerIfaces: "winner_ifaces", KeyMerged: "merged", KeyVia: "via",
}

// HopClass is a traceroute hop's response class as path evidence spells it.
type HopClass uint8

// Hop classes.
const (
	HopTimeout      HopClass = iota // "to"
	HopTimeExceeded                 // "te"
	HopEchoReply                    // "er"
	HopUnreachable                  // "un"
)

var hopClassNames = [...]string{HopTimeout: "to", HopTimeExceeded: "te", HopEchoReply: "er", HopUnreachable: "un"}

// Hop is one hop of path evidence. IP-IDs are deliberately absent: they
// depend on lane interleaving and would break worker-count-invariant
// fingerprints (alias events carry them under a volatile key instead).
type Hop struct {
	TTL   uint8
	Class HopClass
	Addr  netx.Addr // zero when nothing answered
}

// AppendPath appends a hop sequence as space-separated "ttl:class[:addr]"
// tokens — the text of path evidence and of the transcript fingerprint.
func AppendPath(b []byte, hops []Hop) []byte {
	for i, h := range hops {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendHop(b, h)
	}
	return b
}

func appendHop(b []byte, h Hop) []byte {
	b = strconv.AppendUint(b, uint64(h.TTL), 10)
	b = append(b, ':')
	b = append(b, hopClassNames[h.Class&3]...)
	if !h.Addr.IsZero() {
		b = append(b, ':')
		b = h.Addr.AppendTo(b)
	}
	return b
}

func appendAS(b []byte, as uint32) []byte {
	return strconv.AppendUint(append(b, "AS"...), uint64(as), 10)
}

// valueKind is how a Field's value is stored and, on export, spelled.
type valueKind uint8

const (
	// Scalars, stored as one uvarint.
	vInt    valueKind = iota + 1 // decimal
	vFlag                        // "true"; an unset flag is an absent Field
	vIP                          // dotted quad
	vIPPair                      // "a|b"
	vAS                          // "AS<n>"
	vASPair                      // "AS<a>~AS<b>"
	// Bytes, stored length-prefixed: text as it is, a list as its elements'
	// memory (the log never leaves the process, so native layout will do).
	vStr  // verbatim
	vIPs  // comma-separated dotted quads
	vIDs  // comma-separated decimals
	vPath // AppendPath
	vStrs // comma-separated; joined on the way in and stored as vStr
)

// elemSize is the width of one list element, per list kind.
var elemSize = [...]int{vIPs: 4, vIDs: 2, vPath: int(unsafe.Sizeof(Hop{}))}

// Field is one typed piece of evidence handed to Tracer.Emit. It borrows
// the string or slice it was built from; Emit copies that into the log and
// keeps nothing, so a Field — and the variadic slice carrying it — never
// leaves the caller's stack. The zero Field is absent evidence: Emit skips
// it, which lets an emit site state conditional evidence inline.
type Field struct {
	key  Key
	kind valueKind
	n    int32          // bytes behind ptr (vStrs: strings)
	num  uint64         // a scalar's value
	ptr  unsafe.Pointer // string bytes or slice elements
}

func list[T any](k Key, kind valueKind, s []T) Field {
	return Field{key: k, kind: kind, n: int32(len(s) * elemSize[kind]), ptr: unsafe.Pointer(unsafe.SliceData(s))}
}

// Int is a count or index.
func Int(k Key, v int) Field { return Field{key: k, kind: vInt, num: uint64(v)} }

// Flag is evidence that is either present ("true") or absent altogether.
func Flag(k Key, set bool) Field {
	if !set {
		return Field{}
	}
	return Field{key: k, kind: vFlag}
}

// IP is an interface address.
func IP(k Key, a netx.Addr) Field { return Field{key: k, kind: vIP, num: uint64(a)} }

// AS is an AS number.
func AS[T ~uint32](k Key, as T) Field { return Field{key: k, kind: vAS, num: uint64(as)} }

// ASPair is two AS numbers that matched each other, "ASa~ASb".
func ASPair[T ~uint32](k Key, a, b T) Field {
	return Field{key: k, kind: vASPair, num: uint64(a)<<32 | uint64(b)}
}

// Str is a word from a small fixed set: a verdict, a rule tag, a class.
func Str[T ~string](k Key, s T) Field {
	return Field{key: k, kind: vStr, n: int32(len(s)), ptr: unsafe.Pointer(unsafe.StringData(string(s)))}
}

// Strs is a list of such words.
func Strs[T ~string](k Key, s []T) Field {
	return Field{key: k, kind: vStrs, n: int32(len(s)), ptr: unsafe.Pointer(unsafe.SliceData(s))}
}

// IPs is a list of interface addresses.
func IPs(k Key, a []netx.Addr) Field { return list(k, vIPs, a) }

// IDs is a list of IP-ID samples.
func IDs(k Key, ids []uint16) Field { return list(k, vIDs, ids) }

// Path is a traceroute's hop sequence.
func Path(k Key, hops []Hop) Field { return list(k, vPath, hops) }

// An event's subject — what it is about — is its record's first field.

// OnAddr makes an interface address the subject.
func OnAddr(a netx.Addr) Field { return IP(keySubject, a) }

// OnPair makes the address pair "a|b" the subject, in the given order.
func OnPair(a, b netx.Addr) Field {
	return Field{key: keySubject, kind: vIPPair, num: uint64(a)<<32 | uint64(b)}
}

// OnAS makes an AS the subject.
func OnAS[T ~uint32](as T) Field { return AS(keySubject, as) }

// appendRecord encodes one event as kind(1) simNS(varint) {key(1)
// value-kind(1) uvarint [bytes]}…, subject first: the uvarint is a scalar's
// value or the length of the bytes that follow. Nothing in a record points
// anywhere. This is the only place a Field's borrowed pointer is followed.
func appendRecord(b []byte, kind Kind, simNS int64, subject Field, fields []Field) []byte {
	b = binary.AppendVarint(append(b, byte(kind)), simNS)
	b = appendField(b, subject)
	for _, f := range fields {
		if f.key != 0 {
			b = appendField(b, f)
		}
	}
	return b
}

func appendField(b []byte, f Field) []byte {
	switch {
	case f.kind < vStr:
		return binary.AppendUvarint(append(b, byte(f.key), byte(f.kind)), f.num)
	case f.kind < vStrs:
		b = binary.AppendUvarint(append(b, byte(f.key), byte(f.kind)), uint64(f.n))
		return append(b, unsafe.Slice((*byte)(f.ptr), f.n)...)
	}
	words := unsafe.Slice((*string)(f.ptr), f.n)
	size := max(0, len(words)-1) // the commas
	for _, w := range words {
		size += len(w)
	}
	b = binary.AppendUvarint(append(b, byte(f.key), byte(vStr)), uint64(size))
	for i, w := range words {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, w...)
	}
	return b
}

// value is one stored field, decoded but not yet spelled.
type value struct {
	key  Key
	kind valueKind
	num  uint64 // a scalar
	raw  []byte // text, or a list's elements
}

// record is a stored event being read: header decoded, fields pending.
type record struct {
	kind  Kind
	simNS int64
	rest  []byte // undecoded fields
}

// readRecord decodes a record's header. Records are only ever written by
// appendRecord, so the decoders index without bounds hedging.
func readRecord(b []byte) record {
	ns, w := binary.Varint(b[1:])
	return record{kind: Kind(b[0]), simNS: ns, rest: b[1+w:]}
}

// next decodes the record's next field; ok is false once none are left.
func (r *record) next() (v value, ok bool) {
	b := r.rest
	if len(b) == 0 {
		return v, false
	}
	n, w := binary.Uvarint(b[2:])
	v.key, v.kind, b = Key(b[0]), valueKind(b[1]), b[2+w:]
	if v.kind < vStr {
		v.num = n
	} else {
		v.raw, b = b[:n], b[n:]
	}
	r.rest = b
	return v, true
}

// appendTo spells the value the way the emit sites' fmt and String calls
// used to, byte for byte.
func (v value) appendTo(b []byte) []byte {
	switch v.kind {
	case vInt:
		return strconv.AppendInt(b, int64(v.num), 10)
	case vFlag:
		return append(b, "true"...)
	case vIP:
		return netx.Addr(v.num).AppendTo(b)
	case vIPPair:
		return netx.Addr(v.num).AppendTo(append(netx.Addr(v.num>>32).AppendTo(b), '|'))
	case vAS:
		return appendAS(b, uint32(v.num))
	case vASPair:
		return appendAS(append(appendAS(b, uint32(v.num>>32)), '~'), uint32(v.num))
	case vStr:
		return append(b, v.raw...)
	}
	ne, sep := binary.NativeEndian, byte(',')
	if v.kind == vPath {
		sep = ' '
	}
	for raw := v.raw; len(raw) > 0; raw = raw[elemSize[v.kind]:] {
		if len(raw) < len(v.raw) {
			b = append(b, sep)
		}
		switch v.kind {
		case vIPs:
			b = netx.Addr(ne.Uint32(raw)).AppendTo(b)
		case vIDs:
			b = strconv.AppendUint(b, uint64(ne.Uint16(raw)), 10)
		case vPath:
			b = appendHop(b, Hop{TTL: raw[0], Class: HopClass(raw[1]), Addr: netx.Addr(ne.Uint32(raw[unsafe.Offsetof(Hop{}.Addr):]))})
		}
	}
	return b
}

// render materialises the exported view of a stored record.
func render(seq uint64, rec []byte) Event {
	r := readRecord(rec)
	ev := Event{Seq: seq, SimNS: r.simNS, Stage: kindNames[r.kind].stage, Kind: kindNames[r.kind].name}
	var buf [256]byte
	for v, ok := r.next(); ok; v, ok = r.next() {
		if text := string(v.appendTo(buf[:0])); v.key == keySubject {
			ev.Subject = text
		} else {
			ev.Attrs = append(ev.Attrs, Attr{K: keyNames[v.key], V: text})
		}
	}
	return ev
}
