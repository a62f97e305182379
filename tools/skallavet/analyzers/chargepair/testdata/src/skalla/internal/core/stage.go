// Fixture: a miniature of the real core stage/budget API. The analyzer
// keys on type and package names, so this package fakes the hot path
// skalla/internal/core.
package core

type merger struct {
	k int
}

type hStage struct {
	bytes int64
}

type memBudget struct {
	used, limit int64
}

func (m *merger) NewStage(k int) *hStage         { return &hStage{} }
func (st *hStage) Add(n int64) error             { st.bytes += n; return nil }
func (st *hStage) Rows() int                     { return int(st.bytes) }
func (st *hStage) Discard()                      {}
func (m *merger) Commit(st *hStage, k int) error { return nil }
func (b *memBudget) charge(n int64) error        { return nil }
func (b *memBudget) release(n int64)             {}
