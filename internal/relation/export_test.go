package relation

// Fixtures shared with the external relation_test package. Its tests check
// NestedLoopJoin against the batch hash join of internal/vec, which imports
// relation and so cannot be imported from package relation itself.
var (
	StudentTable = studentTable
	FacultyTable = facultyTable
	RandTable    = randTable
	SameMultiset = sameMultiset
)
