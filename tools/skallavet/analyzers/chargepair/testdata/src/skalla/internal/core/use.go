package core

import "context"

// Commit-or-discard on every path: fine.
func commitOrDiscard(m *merger, rows []int64) error {
	st := m.NewStage(1)
	for _, r := range rows {
		if err := st.Add(r); err != nil {
			st.Discard()
			return err
		}
	}
	return m.Commit(st, 1)
}

// Early error return drops the filled stage: its charge leaks.
func droppedOnError(m *merger, rows []int64, check func() error) error {
	st := m.NewStage(1) // want `hStage st can be dropped without Discard or commit on some path`
	for _, r := range rows {
		if err := st.Add(r); err != nil {
			return err
		}
	}
	return m.Commit(st, 1)
}

// Transfer through a channel with a Discard on the cancel path: fine.
func transfer(ctx context.Context, m *merger, stages chan *hStage) {
	st := m.NewStage(2)
	select {
	case stages <- st:
	case <-ctx.Done():
		st.Discard()
	}
}

// Range consumption, every iteration commits or discards: fine.
func drain(m *merger, stages chan *hStage) error {
	for st := range stages {
		if st.Rows() == 0 {
			st.Discard()
			continue
		}
		if err := m.Commit(st, 3); err != nil {
			st.Discard()
			return err
		}
	}
	return nil
}

// A continue that skips both commit and discard leaks that iteration's
// stage. (Reading st.Rows is a use, not a resolution — passing st to
// another function would transfer ownership and satisfy the rule.)
func leakyDrain(m *merger, stages chan *hStage) error {
	for st := range stages { // want `hStage st can be dropped without Discard or commit on some path`
		if st.Rows() == 0 {
			continue
		}
		if err := m.Commit(st, 3); err != nil {
			return err
		}
	}
	return nil
}

// Receive-bound stage resolved on all paths: fine.
func receiveCommit(m *merger, stages chan *hStage) error {
	st := <-stages
	return m.Commit(st, 4)
}

// Receive-bound stage dropped when empty: the drop path leaks.
func receiveDrop(m *merger, stages chan *hStage) error {
	st := <-stages // want `hStage st can be dropped without Discard or commit on some path`
	if st.Rows() == 0 {
		return nil
	}
	return m.Commit(st, 4)
}

// Handing the stage to a goroutine worker transfers ownership — the
// closure argument is evaluated at spawn time: fine.
func parallelCommit(m *merger, stages chan *hStage, done func(error)) {
	for st := range stages {
		if st.Rows() == 0 {
			st.Discard()
			continue
		}
		go func(st *hStage) {
			done(m.Commit(st, 5))
		}(st)
	}
}

// A deferred Discard resolves the stage at exit: fine.
func deferredDiscard(m *merger, rows []int64) error {
	st := m.NewStage(6)
	defer st.Discard()
	for _, r := range rows {
		if err := st.Add(r); err != nil {
			return err
		}
	}
	return m.Commit(st, 6)
}

// Checked charge: fine.
func chargedChecked(b *memBudget, n int64) error {
	if err := b.charge(n); err != nil {
		return err
	}
	b.release(n)
	return nil
}

// Dropped charge errors drift the budget accounting.
func chargedIgnored(b *memBudget, st *hStage, n int64) {
	b.charge(n)       // want `error from memBudget.charge ignored`
	_ = st.Add(n)     // want `error from hStage.Add ignored`
	defer b.charge(n) // want `error from memBudget.charge ignored`
}
