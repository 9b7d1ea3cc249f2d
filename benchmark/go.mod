module redisgraph/benchmark

go 1.22

require redisgraph v0.0.0

replace redisgraph => ../
