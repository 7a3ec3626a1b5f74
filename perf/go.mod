module graphpulse/perf

go 1.22

require graphpulse v0.0.0

replace graphpulse => ../
