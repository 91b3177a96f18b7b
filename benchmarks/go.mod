module ginflow/benchmarks

go 1.24

require ginflow v0.0.0

replace ginflow => ../
