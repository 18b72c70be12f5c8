package serve

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/mining"
)

// Query limits applied during normalization.
const (
	// DefaultTopK is the rule count returned when K is 0.
	DefaultTopK = 10
	// MaxTopK caps K so one query cannot ask the server to copy the whole
	// rule set per request.
	MaxTopK = 10000
	// maxQueryItems caps the item-list length of a single query.
	maxQueryItems = 1024
)

// RankBy selects the rule ordering of a RulesQuery.
type RankBy string

// The three rule orderings. Ties always break toward the published
// GenerateRules order so every ordering is deterministic.
const (
	// ByConfidence ranks by confidence descending (the default).
	ByConfidence RankBy = "confidence"
	// BySupport ranks by absolute support descending.
	BySupport RankBy = "support"
	// ByLift ranks by lift descending.
	ByLift RankBy = "lift"
)

// RulesQuery selects and orders association rules from the current view:
// the top K rules by the chosen metric, at or above MinConfidence,
// optionally restricted to rules whose antecedent contains every item in
// Antecedent. The zero value is "top 10 by confidence at the floor".
type RulesQuery struct {
	// K is the maximum number of rules returned (0 = DefaultTopK,
	// clamped to MaxTopK).
	K int
	// By is the ranking metric ("" = ByConfidence).
	By RankBy
	// MinConfidence filters rules below it; values at or below the
	// server's rule floor are answered from the floor set.
	MinConfidence float64
	// Antecedent, when non-empty, keeps only rules whose antecedent
	// contains every listed item.
	Antecedent []int
}

// normalize validates q and returns its canonical form: K bounded, By
// resolved, the antecedent sorted and deduplicated. Two queries that
// normalize identically share one cache entry.
func (q RulesQuery) normalize() (RulesQuery, error) {
	if q.K < 0 {
		return q, fmt.Errorf("%w: negative top-k %d", ErrBadQuery, q.K)
	}
	if q.K == 0 {
		q.K = DefaultTopK
	}
	if q.K > MaxTopK {
		q.K = MaxTopK
	}
	switch q.By {
	case "":
		q.By = ByConfidence
	case ByConfidence, BySupport, ByLift:
	default:
		return q, fmt.Errorf("%w: unknown rank key %q (want confidence, support or lift)", ErrBadQuery, q.By)
	}
	// The inverted comparison also rejects NaN, which every ordered
	// comparison lets through.
	if !(q.MinConfidence >= 0 && q.MinConfidence <= 1) {
		return q, fmt.Errorf("%w: min confidence %v outside [0, 1]", ErrBadQuery, q.MinConfidence)
	}
	ant, err := normalizeItems(q.Antecedent)
	if err != nil {
		return q, err
	}
	q.Antecedent = ant
	return q, nil
}

// key renders the normalized query as its cache key.
func (q RulesQuery) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rules|k=%d|by=%s|conf=%g|ant=", q.K, q.By, q.MinConfidence)
	for i, it := range q.Antecedent {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(it))
	}
	return b.String()
}

// normalizeItems sorts, deduplicates and bounds-checks a query item list.
func normalizeItems(items []int) ([]int, error) {
	if len(items) > maxQueryItems {
		return nil, fmt.Errorf("%w: %d items exceeds the %d-item limit", ErrBadQuery, len(items), maxQueryItems)
	}
	out := make([]int, 0, len(items))
	for _, it := range items {
		if it < 0 {
			return nil, fmt.Errorf("%w: negative item id %d", ErrBadQuery, it)
		}
		out = append(out, it)
	}
	sort.Ints(out)
	j := 0
	for i, it := range out {
		if i == 0 || it != out[j-1] {
			out[j] = it
			j++
		}
	}
	return out[:j], nil
}

// ParseRulesQuery parses the HTTP form of a RulesQuery: k (int), by
// (confidence|support|lift), minconf (float), antecedent (item ids
// separated by commas or spaces). Unknown parameters are ignored so the
// surface can grow; malformed values wrap ErrBadQuery. The returned
// query is already normalized.
func ParseRulesQuery(values url.Values) (RulesQuery, error) {
	var q RulesQuery
	if raw := values.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return q, fmt.Errorf("%w: k=%q: %v", ErrBadQuery, raw, err)
		}
		q.K = k
	}
	q.By = RankBy(strings.ToLower(strings.TrimSpace(values.Get("by"))))
	if raw := values.Get("minconf"); raw != "" {
		c, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, fmt.Errorf("%w: minconf=%q: %v", ErrBadQuery, raw, err)
		}
		q.MinConfidence = c
	}
	if raw := values.Get("antecedent"); raw != "" {
		items, err := ParseItems(raw)
		if err != nil {
			return q, err
		}
		q.Antecedent = items
	}
	return q.normalize()
}

// ParseItems parses an item-id list separated by commas and/or
// whitespace ("3,1 2"). Empty fields are skipped; an empty list is an
// error for the endpoints that require items, which they check
// themselves. Malformed or negative ids wrap ErrBadQuery.
func ParseItems(raw string) ([]int, error) {
	fields := strings.FieldsFunc(raw, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	if len(fields) > maxQueryItems {
		return nil, fmt.Errorf("%w: %d items exceeds the %d-item limit", ErrBadQuery, len(fields), maxQueryItems)
	}
	items := make([]int, 0, len(fields))
	for _, f := range fields {
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%w: item %q: %v", ErrBadQuery, f, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("%w: negative item id %d", ErrBadQuery, id)
		}
		items = append(items, id)
	}
	return items, nil
}

// SupportResult is the answer to an itemset support lookup against one
// view version.
type SupportResult struct {
	// Version is the view the lookup ran against.
	Version uint64 `json:"version"`
	// Items is the normalized queried itemset.
	Items []int `json:"items"`
	// Count is the absolute support (0 when not frequent).
	Count int `json:"count"`
	// NumTx is the view's transaction count, for relative support.
	NumTx int `json:"num_tx"`
	// Frequent reports whether the itemset met minimum support.
	Frequent bool `json:"frequent"`
}

// TopRules answers q against the current view, serving repeats of the
// same normalized query on the same version from the cache. The returned
// slice is shared and read-only; the version identifies the view it was
// computed from.
func (s *Server) TopRules(q RulesQuery) ([]mining.Rule, uint64, error) {
	v := s.View()
	rules, err := s.topRulesAt(v, q)
	if err != nil {
		return nil, 0, err
	}
	return rules, v.version, nil
}

// topRulesAt answers q against the given view through the cache. Callers
// that report more than the rules (the HTTP handler adds NumTx) load the
// view once and read every field from it, so a response never mixes two
// snapshots.
func (s *Server) topRulesAt(v *View, q RulesQuery) ([]mining.Rule, error) {
	nq, err := q.normalize()
	if err != nil {
		return nil, err
	}
	key := nq.key()
	if rules, ok := s.cache.get(v.version, key); ok {
		return rules, nil
	}
	rules := topRules(v, nq)
	s.cache.put(v.version, key, rules)
	return rules, nil
}

// topRules computes q over one immutable view.
func topRules(v *View, q RulesQuery) []mining.Rule {
	matched := make([]mining.Rule, 0, q.K)
	for _, r := range v.rules {
		if r.Confidence < q.MinConfidence {
			continue
		}
		if len(q.Antecedent) > 0 && !containsAll(r.Antecedent, q.Antecedent) {
			continue
		}
		matched = append(matched, r)
	}
	rankRules(matched, q.By)
	if len(matched) > q.K {
		matched = matched[:q.K]
	}
	return matched
}

// rankRules stably sorts rules by the chosen metric descending; the
// incoming GenerateRules order breaks ties.
func rankRules(rules []mining.Rule, by RankBy) {
	switch by {
	case BySupport:
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Support > rules[j].Support })
	case ByLift:
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Lift > rules[j].Lift })
	default:
		// ByConfidence is the GenerateRules order already.
	}
}

// containsAll reports whether the sorted list haystack contains every
// element of the sorted list needle.
func containsAll(haystack, needle []int) bool {
	i := 0
	for _, want := range needle {
		for i < len(haystack) && haystack[i] < want {
			i++
		}
		if i >= len(haystack) || haystack[i] != want {
			return false
		}
		i++
	}
	return true
}

// ItemsetSupport looks up the absolute support of one itemset in the
// current view. Items may be unordered and duplicated; negative ids are
// an error.
func (s *Server) ItemsetSupport(items ...int) (SupportResult, error) {
	norm, err := normalizeItems(items)
	if err != nil {
		return SupportResult{}, err
	}
	if len(norm) == 0 {
		return SupportResult{}, fmt.Errorf("%w: empty itemset", ErrBadQuery)
	}
	v := s.View()
	res := SupportResult{Version: v.version, Items: norm, NumTx: v.numTx}
	res.Count, res.Frequent = v.Support(norm...)
	return res, nil
}

// Recommend answers "users who have basket also have ...": the top k
// rules whose antecedent is contained in basket and whose consequent
// adds at least one item not already in it, ranked by confidence (ties
// by lift, then the published order). The returned slice is shared and
// read-only.
func (s *Server) Recommend(basket []int, k int) ([]mining.Rule, uint64, error) {
	v := s.View()
	rules, err := s.recommendAt(v, basket, k)
	if err != nil {
		return nil, 0, err
	}
	return rules, v.version, nil
}

// recommendAt answers a recommendation against the given view through
// the cache; like topRulesAt it lets a caller answer from one view.
func (s *Server) recommendAt(v *View, basket []int, k int) ([]mining.Rule, error) {
	norm, err := normalizeItems(basket)
	if err != nil {
		return nil, err
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("%w: empty basket", ErrBadQuery)
	}
	if k < 0 {
		return nil, fmt.Errorf("%w: negative top-k %d", ErrBadQuery, k)
	}
	if k == 0 {
		k = DefaultTopK
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	key := recommendKey(norm, k)
	if rules, ok := s.cache.get(v.version, key); ok {
		return rules, nil
	}
	rules := recommend(v, norm, k)
	s.cache.put(v.version, key, rules)
	return rules, nil
}

// recommendKey renders a recommendation request as its cache key.
func recommendKey(basket []int, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rec|k=%d|items=", k)
	for i, it := range basket {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(it))
	}
	return b.String()
}

// recommend computes the recommendation rules over one immutable view.
func recommend(v *View, basket []int, k int) []mining.Rule {
	var matched []mining.Rule
	for _, r := range v.rules {
		if !containsAll(basket, r.Antecedent) {
			continue
		}
		if containsAll(basket, r.Consequent) {
			continue // nothing new to recommend
		}
		matched = append(matched, r)
	}
	sort.SliceStable(matched, func(i, j int) bool {
		if matched[i].Confidence != matched[j].Confidence {
			return matched[i].Confidence > matched[j].Confidence
		}
		return matched[i].Lift > matched[j].Lift
	})
	if len(matched) > k {
		matched = matched[:k]
	}
	return matched
}
