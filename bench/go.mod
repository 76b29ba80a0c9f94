module dssp/bench

go 1.24

require dssp v0.0.0

replace dssp => ../
