package span

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Node is one span in an assembled tree.
type Node struct {
	// Name is the span's aggregation name (also the self-profile key).
	Name string
	// Attrs are the identity attributes fixed at Start.
	Attrs []Attr
	// Notes are the measurement annotations attached before End.
	Notes []Attr
	// StartNs and DurNs time the span in nanoseconds since the tracer epoch.
	StartNs int64
	DurNs   int64
	// Children are the spans started under this one, ordered by start time.
	Children []*Node

	id uint64
}

// EndNs returns the span's end time in nanoseconds since the tracer epoch.
func (n *Node) EndNs() int64 { return n.StartNs + n.DurNs }

// SelfNs returns the span's self time: its duration minus the summed
// durations of its children, clamped at zero (children running in parallel
// can sum past their parent).
func (n *Node) SelfNs() int64 {
	var child int64
	for _, c := range n.Children {
		child += c.DurNs
	}
	if child >= n.DurNs {
		return 0
	}
	return n.DurNs - child
}

// Attr returns the value of the named identity attribute, or "".
func (n *Node) Attr(key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Note returns the value of the named measurement note, or "".
func (n *Node) Note(key string) string {
	for _, a := range n.Notes {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tree is a deterministic assembly of a tracer's finished spans.
type Tree struct {
	// Roots are the spans with no (finished) parent, ordered by start time.
	Roots []*Node
	// Spans counts the finished spans in the tree.
	Spans int
	// Dropped counts spans whose parent never ended; they are attached at
	// the root so no measured time is lost.
	Dropped int
}

// Snapshot assembles the finished spans into a tree. Children are attached
// to their parents and ordered by start time; spans whose parent was never
// ended become roots (counted in Dropped). Snapshot is non-destructive and
// may be called while spans are still being recorded — it sees every span
// whose End or Record completed before the call.
func (t *Tracer) Snapshot() *Tree {
	tree := &Tree{}
	if t == nil {
		return tree
	}
	byID := make(map[uint64]*Node)
	parents := make(map[uint64]uint64)
	var all []*Node
	for fs := t.head.Load(); fs != nil; fs = fs.next {
		s := fs.span
		n := &Node{Name: s.name, Attrs: s.attrs, Notes: s.notes,
			StartNs: s.startNs, DurNs: s.durNs, id: s.id}
		byID[s.id] = n
		parents[s.id] = s.parent
		all = append(all, n)
	}
	tree.Spans = len(all)
	for _, n := range all {
		pid := parents[n.id]
		if p, ok := byID[pid]; ok && pid != 0 && pid != n.id {
			p.Children = append(p.Children, n)
			continue
		}
		if pid != 0 {
			tree.Dropped++
		}
		tree.Roots = append(tree.Roots, n)
	}
	sortNodes(tree.Roots)
	for _, n := range all {
		sortNodes(n.Children)
	}
	return tree
}

// sortNodes orders siblings by start time, breaking ties by name, identity
// attributes, and finally span id.
func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		ak, bk := attrString(a.Attrs), attrString(b.Attrs)
		if ak != bk {
			return ak < bk
		}
		return a.id < b.id
	})
}

// attrString renders identity attributes canonically for sorting and the
// Structure digest.
func attrString(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value)
	}
	return b.String()
}

// Structure renders the tree's names, identity attributes and nesting as a
// deterministic digest: durations, notes, ids and scheduling order are all
// excluded, and siblings are ordered by their own rendered structure. Two
// runs of the same workload produce the same Structure regardless of
// goroutine interleaving — the determinism tests pin exactly this.
func (t *Tree) Structure() string {
	parts := make([]string, len(t.Roots))
	for i, n := range t.Roots {
		parts[i] = nodeStructure(n)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// nodeStructure renders one node's structural digest.
func nodeStructure(n *Node) string {
	var b strings.Builder
	b.WriteString(n.Name)
	if len(n.Attrs) > 0 {
		b.WriteByte('{')
		b.WriteString(attrString(n.Attrs))
		b.WriteByte('}')
	}
	if len(n.Children) > 0 {
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = nodeStructure(c)
		}
		sort.Strings(parts)
		b.WriteByte('(')
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte(')')
	}
	return b.String()
}

// CriticalPath returns the spans that gated the tree's completion. It
// starts from the root with the latest end and walks each span's children
// backwards in time: the child that ended last, then the child that ended
// latest at or before that one started, and so on until no child ended
// before the current one started. Each span on that chain gated its
// successor (or its parent's end), so the path descends into every one of
// them the same way. Parallel siblings that overlap a chosen span are
// skipped: they did not gate anything the chain waited on.
//
// The result lists the path in execution order, each span before the
// path inside it — the root first, then its chain's first span and that
// span's own path, and so on. It is empty for an empty tree.
func (t *Tree) CriticalPath() []*Node {
	var root *Node
	for _, r := range t.Roots {
		if root == nil || r.EndNs() > root.EndNs() {
			root = r
		}
	}
	if root == nil {
		return nil
	}
	var path []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		path = append(path, n)
		for _, c := range gatingChain(n.Children) {
			walk(c)
		}
	}
	walk(root)
	return path
}

// gatingChain picks, among siblings, the last-ending span and then, going
// back in time, the span that ended latest no later than the previous
// pick started. The chain is returned in execution order.
func gatingChain(children []*Node) []*Node {
	// Latest end first; on equal ends the earlier start (the span that
	// covers more of the wait) wins. Full ties are considered in reverse
	// sibling order, so they come out in sibling order below.
	byEnd := make([]*Node, len(children))
	for i, c := range children {
		byEnd[len(children)-1-i] = c
	}
	sort.SliceStable(byEnd, func(i, j int) bool {
		a, b := byEnd[i], byEnd[j]
		if a.EndNs() != b.EndNs() {
			return a.EndNs() > b.EndNs()
		}
		return a.StartNs < b.StartNs
	})
	var chain []*Node
	bound := int64(math.MaxInt64)
	for _, c := range byEnd {
		if c.EndNs() <= bound {
			chain = append(chain, c)
			bound = c.StartNs
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Walk visits every node in the tree, parents before children.
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}

// MaxDurByAttr maps each distinct value of the named identity attribute to
// the largest duration of any span carrying it. The plan profiler uses this
// with the "key" attribute to recover per-plan-node durations: the longest
// span for a cache key is the one that actually computed it (hit markers
// carrying the same key are near-instant).
func (t *Tree) MaxDurByAttr(key string) map[string]int64 {
	out := make(map[string]int64)
	t.Walk(func(n *Node) {
		v := n.Attr(key)
		if v == "" {
			return
		}
		if n.DurNs > out[v] {
			out[v] = n.DurNs
		}
	})
	return out
}

// WallNs returns the wall-clock extent of the tree: latest root end minus
// earliest root start.
func (t *Tree) WallNs() int64 {
	if len(t.Roots) == 0 {
		return 0
	}
	minStart, maxEnd := t.Roots[0].StartNs, t.Roots[0].EndNs()
	for _, r := range t.Roots[1:] {
		if r.StartNs < minStart {
			minStart = r.StartNs
		}
		if r.EndNs() > maxEnd {
			maxEnd = r.EndNs()
		}
	}
	return maxEnd - minStart
}

// ProfileEntry aggregates all spans sharing one name.
type ProfileEntry struct {
	// Name is the span name being aggregated.
	Name string `json:"name"`
	// Count is the number of spans with this name.
	Count int `json:"count"`
	// TotalNs sums their durations (parallel spans double-count against
	// wall clock, as in any cumulative profile).
	TotalNs int64 `json:"total_ns"`
	// SelfNs sums their self times (duration minus child durations).
	SelfNs int64 `json:"self_ns"`
	// MaxNs is the longest single span with this name.
	MaxNs int64 `json:"max_ns"`
}

// Profile is a self-profile of a span tree: per-name aggregate times.
type Profile struct {
	// WallNs is the tree's wall-clock extent.
	WallNs int64 `json:"wall_ns"`
	// Spans counts the spans aggregated.
	Spans int `json:"spans"`
	// Entries are the per-name aggregates, largest total first.
	Entries []ProfileEntry `json:"entries"`
}

// Profile aggregates the tree by span name, largest total time first (name
// breaks ties, so output order is deterministic).
func (t *Tree) Profile() Profile {
	agg := make(map[string]*ProfileEntry)
	t.Walk(func(n *Node) {
		e := agg[n.Name]
		if e == nil {
			e = &ProfileEntry{Name: n.Name}
			agg[n.Name] = e
		}
		e.Count++
		e.TotalNs += n.DurNs
		e.SelfNs += n.SelfNs()
		if n.DurNs > e.MaxNs {
			e.MaxNs = n.DurNs
		}
	})
	p := Profile{WallNs: t.WallNs(), Spans: t.Spans}
	for _, e := range agg {
		p.Entries = append(p.Entries, *e)
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		a, b := p.Entries[i], p.Entries[j]
		if a.TotalNs != b.TotalNs {
			return a.TotalNs > b.TotalNs
		}
		return a.Name < b.Name
	})
	return p
}

// Lookup returns the profile entry for name, or a zero entry.
func (p Profile) Lookup(name string) ProfileEntry {
	for _, e := range p.Entries {
		if e.Name == name {
			return e
		}
	}
	return ProfileEntry{}
}

// FormatNs renders nanoseconds as a compact human duration (e.g. "1.24s",
// "83ms", "512µs") for tables and summaries.
func FormatNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%dµs", ns/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
