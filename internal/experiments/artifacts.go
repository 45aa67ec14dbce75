package experiments

// Artifacts is every table and figure of the paper under its id for
// cmd/experiments -only, in the order experiments_full.txt records them.
var Artifacts = []struct {
	ID  string
	Run func(Scale) (*Table, error)
}{
	{"fig1", func(Scale) (*Table, error) { return Figure1(), nil }},
	{"table1", func(Scale) (*Table, error) { return Table1(), nil }},
	{"fig2", func(Scale) (*Table, error) { return Figure2(), nil }},
	{"fig2measured", Figure2Measured},
	{"table2", func(Scale) (*Table, error) { return Table2(), nil }},
	{"fig3", Figure3},
	{"fig4", Figure4},
	{"fig5", Figure5},
	{"fig6", Figure6},
	{"table3", Table3},
	{"ablations", Ablations},
	{"locality", Locality},
}
