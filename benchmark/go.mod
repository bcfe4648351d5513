module extract/benchmark

go 1.24

require extract v0.0.0

replace extract => ../
