package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"repro/mining"
)

// ruleFloor is the served rule set's confidence floor (dmserve's
// default), and the floor every reference rule set is generated at.
const ruleFloor = 0.5

// wireRule and wireRules mirror the JSON the read endpoints return.
type wireRule struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// wireRules is the body of /v1/rules and /v1/recommend.
type wireRules struct {
	Version uint64     `json:"version"`
	NumTx   int        `json:"num_tx"`
	Rules   []wireRule `json:"rules"`
}

// wireSupport is the body of /v1/support.
type wireSupport struct {
	Version  uint64 `json:"version"`
	Items    []int  `json:"items"`
	Count    int    `json:"count"`
	NumTx    int    `json:"num_tx"`
	Frequent bool   `json:"frequent"`
}

// reference is a from-scratch mine of the rows one served version was
// built from: the oracle sampled responses are checked against.
type reference struct {
	numTx int
	res   *mining.Result
	rules []mining.Rule
}

// mineReference mines rows from scratch with the default engine and
// generates the rules at the served floor.
func mineReference(ctx context.Context, rows [][]int, minsup float64) (*reference, error) {
	db, err := mining.NewDB(rows)
	if err != nil {
		return nil, err
	}
	res, err := mining.Mine(ctx, db, mining.MinSupport(minsup), mining.Workers(0))
	if err != nil {
		return nil, err
	}
	rules, err := res.Rules(ruleFloor)
	if err != nil {
		return nil, err
	}
	return &reference{numTx: len(rows), res: res, rules: rules}, nil
}

// versionOf reads the version field every read response carries.
func versionOf(body []byte) (uint64, error) {
	var v struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	return v.Version, nil
}

// checkSample compares one served response to the answer recomputed
// from ref, the from-scratch rule set of the response's version.
func checkSample(q query, version uint64, body []byte, ref *reference) error {
	var got, want any
	switch q.kind {
	case qSupport:
		var g wireSupport
		if err := json.Unmarshal(body, &g); err != nil {
			return fmt.Errorf("%s: decoding: %w", q.path, err)
		}
		count, freq := ref.res.Support(q.items...)
		got, want = g, wireSupport{Version: version, Items: q.items, Count: count, NumTx: ref.numTx, Frequent: freq}
	default:
		var g wireRules
		if err := json.Unmarshal(body, &g); err != nil {
			return fmt.Errorf("%s: decoding: %w", q.path, err)
		}
		var rules []mining.Rule
		if q.kind == qRules {
			rules = refTopRules(ref.rules, q)
		} else {
			rules = refRecommend(ref.rules, q)
		}
		got, want = g, wireRules{Version: version, NumTx: ref.numTx, Rules: toWire(rules)}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s at version %d: served %+v, from-scratch answer %+v", q.path, version, got, want)
	}
	return nil
}

// toWire converts rules to their wire form (never nil, like the
// server's encoding of an empty list).
func toWire(rules []mining.Rule) []wireRule {
	out := make([]wireRule, len(rules))
	for i, r := range rules {
		out[i] = wireRule{Antecedent: r.Antecedent, Consequent: r.Consequent, Support: r.Support, Confidence: r.Confidence, Lift: r.Lift}
	}
	return out
}

// refTopRules is the documented /v1/rules answer: rules whose antecedent
// holds every queried item, stably ranked by the chosen metric over the
// generation order, first k.
func refTopRules(rules []mining.Rule, q query) []mining.Rule {
	var m []mining.Rule
	for _, r := range rules {
		if subset(q.items, r.Antecedent) {
			m = append(m, r)
		}
	}
	switch q.by {
	case "support":
		sort.SliceStable(m, func(i, j int) bool { return m[i].Support > m[j].Support })
	case "lift":
		sort.SliceStable(m, func(i, j int) bool { return m[i].Lift > m[j].Lift })
	}
	return firstK(m, q.k)
}

// refRecommend is the documented /v1/recommend answer: rules whose
// antecedent lies in the basket and whose consequent adds an item to it,
// by confidence then lift, first k.
func refRecommend(rules []mining.Rule, q query) []mining.Rule {
	var m []mining.Rule
	for _, r := range rules {
		if subset(r.Antecedent, q.items) && !subset(r.Consequent, q.items) {
			m = append(m, r)
		}
	}
	sort.SliceStable(m, func(i, j int) bool {
		if m[i].Confidence != m[j].Confidence {
			return m[i].Confidence > m[j].Confidence
		}
		return m[i].Lift > m[j].Lift
	})
	return firstK(m, q.k)
}

// firstK truncates to k.
func firstK(rules []mining.Rule, k int) []mining.Rule {
	if len(rules) > k {
		return rules[:k]
	}
	return rules
}

// subset reports whether every item of the sorted list a is in the
// sorted list b.
func subset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// checkCanonical fails when two canonical encodings differ, naming the
// first differing byte.
func checkCanonical(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: canonical bytes differ at offset %d (%d vs %d bytes)", what, i, len(got), len(want))
}

// checkRows fails when two row sequences differ.
func checkRows(what string, got, want [][]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(distinct(got[i]), distinct(want[i])) {
			return fmt.Errorf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}
