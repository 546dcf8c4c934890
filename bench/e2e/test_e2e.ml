(* Unit tests for the end-to-end benchmark's own logic: the percentile
   and quartile rules, request-list determinism and interleaving, span
   self time and Prometheus-text differencing. *)

open Xr_e2e

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let opt = Alcotest.(option (float 0.))

let test_percentile_rule () =
  (* nearest rank: p50 of 1..20 is the 10th sample, with 10 beyond it *)
  let p n per_mille = Stat.percentile (floats n) ~per_mille in
  Alcotest.check opt "p50 of 20" (Some 10.) (p 20 500);
  Alcotest.check opt "p50 of 19 has 9 beyond" None (p 19 500);
  Alcotest.check opt "p90 of 100" (Some 90.) (p 100 900);
  Alcotest.check opt "p99 of 100 has 1 beyond" None (p 100 990);
  Alcotest.check opt "p99 of 1000" (Some 990.) (p 1000 990);
  Alcotest.check opt "p99 of 999 has 9 beyond" None (p 999 990);
  (* rank rounds up: p90 of 101 samples is the 91st *)
  Alcotest.check opt "p90 of 101" (Some 91.) (p 101 900);
  Alcotest.check opt "empty" None (p 0 500)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stat.quartiles [| 10.; 3.; 1.; 2.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stat.quartiles [| 1.; 2. |] in
  Alcotest.(check (list (float 1e-12))) "two values" [ 0.75; 1.5; 2.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 0.)) "even median" 2.5 (Stat.median [| 4.; 1.; 3.; 2. |])

let index =
  lazy
    (Xr_index.Index.build ~mode:Xr_index.Index.Flat
       (Xr_xml.Doc.of_tree (Xr_data.Dblp.scaled ~publications:300 ~seed:2009)))

let wires seed name =
  let wl = Workload.make Workload.smoke ~seed name (Lazy.force index) in
  Array.to_list (Array.map (fun i -> Workload.wire wl.Workload.distinct.(i)) wl.Workload.order)

let test_lists_deterministic () =
  List.iter
    (fun name ->
      let a = wires 2009 name in
      Alcotest.(check bool) (name ^ " non-empty") true (a <> []);
      Alcotest.(check (list string)) (name ^ " same seed") a (wires 2009 name);
      Alcotest.(check bool) (name ^ " other seed differs") false (a = wires 7 name))
    Workload.names

let test_cold_lists_distinct () =
  List.iter
    (fun name ->
      let w = wires 2009 name in
      Alcotest.(check int) (name ^ " never repeats") (List.length w)
        (List.length (List.sort_uniq String.compare w)))
    [ "search_cold"; "refine_cold" ]

let test_interleave_keeps_shares () =
  (* buckets of 40, 12, 5 and 3 items, drawn in a scrambled order *)
  let bucket x = if x < 40 then 0 else if x < 52 then 1 else if x < 57 then 2 else 3 in
  let qs = List.init 60 (fun i -> i * 37 mod 60) in
  let out = Workload.interleave ~bucket qs in
  Alcotest.(check (list int)) "same items" (List.init 60 Fun.id) (List.sort compare out);
  let share = [| 40; 12; 5; 3 |] and seen = Array.make 4 0 in
  List.iteri
    (fun p x ->
      seen.(bucket x) <- seen.(bucket x) + 1;
      Array.iteri
        (fun i s ->
          let due = float_of_int ((p + 1) * s) /. 60. in
          if Float.abs (float_of_int seen.(i) -. due) >= 1. then
            Alcotest.failf "prefix %d holds %d of bucket %d, due %.2f" (p + 1) seen.(i) i
              due)
        share)
    out;
  List.iter
    (fun b ->
      let of_bucket l = List.filter (fun x -> bucket x = b) l in
      Alcotest.(check (list int))
        "order kept within a bucket" (of_bucket qs) (of_bucket out))
    [ 0; 1; 2; 3 ]

let test_self_time_overlap () =
  let t = Span.create () in
  let p = Span.name "parent" and c = Span.name "child" in
  let root = Span.add t ~req:0 ~name_id:p ~parent:(-1) ~start_ns:0 ~end_ns:100 in
  (* [10,40] and [30,60] overlap; [90,120] runs past the parent's end *)
  List.iter
    (fun (s, e) -> ignore (Span.add t ~req:0 ~name_id:c ~parent:root ~start_ns:s ~end_ns:e))
    [ (10, 40); (30, 60); (90, 120) ];
  let self = Span.self_times t in
  Alcotest.(check int) "parent self = 100 - |[10,60] u [90,100]|" 40 self.(root);
  Alcotest.(check (list int)) "leaf self = duration" [ 30; 30; 30 ]
    (Array.to_list (Array.sub self 1 3));
  let calls, self_ns = Span.totals t in
  Alcotest.(check int) "child calls" 3 calls.(c);
  Alcotest.(check int) "child self total" 90 self_ns.(c);
  Alcotest.(check (array int)) "request duration" [| 100 |] (Span.root_durations t p ~n:1)

let before =
  {|# HELP xr_plan_cache_events_total Compiled-plan cache events
# TYPE xr_plan_cache_events_total counter
xr_plan_cache_events_total{event="hit"} 3
xr_plan_cache_events_total{event="miss"} 5
xr_http_request_duration_ms_bucket{endpoint="/search",le="1"} 2 # {trace_id="7"} 0.5
xr_http_request_duration_ms_sum{endpoint="/search"} 10.5
xr_http_request_duration_ms_count{endpoint="/search"} 4
xr_http_request_duration_ms_sum{endpoint="/metrics"} 1
xr_http_request_duration_ms_count{endpoint="/metrics"} 1
xr_odd{path="a \"quoted\" value",k="x"} 1
xr_gc_major_collections_total 12
|}

let after =
  {|xr_plan_cache_events_total{event="hit"} 10
xr_plan_cache_events_total{event="miss"} 6
xr_http_request_duration_ms_sum{endpoint="/search"} 30.5
xr_http_request_duration_ms_count{endpoint="/search"} 8
xr_http_request_duration_ms_sum{endpoint="/metrics"} 3
xr_http_request_duration_ms_count{endpoint="/metrics"} 2
xr_odd{path="a \"quoted\" value",k="x"} 4
xr_gc_major_collections_total 15
|}

let test_prometheus_delta () =
  let before = Prom.parse before and after = Prom.parse after in
  let f = Alcotest.(check (float 1e-9)) in
  f "labelled counter" 7.
    (Prom.delta ~keep:(Prom.has ("event", "hit")) ~before ~after "xr_plan_cache_events_total");
  f "all labels" 8. (Prom.delta ~before ~after "xr_plan_cache_events_total");
  f "unlabelled" 3. (Prom.delta ~before ~after "xr_gc_major_collections_total");
  f "escaped label value" 3.
    (Prom.delta ~keep:(Prom.has ("path", "a \"quoted\" value")) ~before ~after "xr_odd");
  f "histogram mean without /metrics" 5.
    (Prom.histogram_mean
       ~keep:(fun l -> not (Prom.has ("endpoint", "/metrics") l))
       ~before ~after "xr_http_request_duration_ms");
  f "histogram mean, all endpoints" (22. /. 5.)
    (Prom.histogram_mean ~before ~after "xr_http_request_duration_ms");
  f "no observations" 0. (Prom.histogram_mean ~before ~after "xr_absent");
  Alcotest.(check int) "exemplar line parsed, comments skipped" 9 (List.length before)

let () =
  Alcotest.run "e2e"
    [
      ( "stat",
        [
          Alcotest.test_case "percentile nearest rank, 10 beyond" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "workload",
        [
          Alcotest.test_case "lists follow the seed" `Quick test_lists_deterministic;
          Alcotest.test_case "cold lists never repeat" `Quick test_cold_lists_distinct;
          Alcotest.test_case "interleave keeps every prefix's shares" `Quick
            test_interleave_keeps_shares;
        ] );
      ( "span",
        [ Alcotest.test_case "self time with overlapping children" `Quick test_self_time_overlap ]
      );
      ( "prom",
        [
          Alcotest.test_case "delta of labelled counters and histograms" `Quick
            test_prometheus_delta;
        ] );
    ]
