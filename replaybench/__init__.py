"""Request-replay benchmark for the plan service.

Four seeded workloads drive the program through its public API and
time whole requests: ``hot_repeat`` (cache hits), ``cold_ladder``
(every ladder rung, cache only writes), ``deadline_http`` (the HTTP
server under open-loop traffic with deadlines) and ``sql_exec`` (SQL
text in, executed rows out). ``python -m replaybench run`` prints every
end-to-end metric; ``--trace 1`` adds a traced pass that attributes
request time to layers. See ``replaybench/README.md``.
"""
