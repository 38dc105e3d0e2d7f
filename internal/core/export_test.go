package core

// SetTaskSeq sets the sequence number the session's next task takes.
func (s *Session) SetTaskSeq(seq int) { s.taskSeq = seq }

// Domain returns domain d's session.
func (ss *ShardedSession) Domain(d int) *Session { return ss.domains[d] }
