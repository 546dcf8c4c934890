(* Domain parallelism: the work-stealing pool's contract (fan-out, help
   loop, nested batches, exception propagation, size-1 inline mode), the
   headline property that the chunked parallel SLCA kernel is
   byte-identical to the sequential scan for every chunking, adversarial
   split placements, and determinism of the parallel refinement pipeline
   up to the served JSON bytes. *)

open Xr_xml
module P = Dewey.Packed
module Scan_packed = Xr_slca.Scan_packed
module Parallel = Xr_slca.Parallel
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Rengine = Xr_refine.Engine
module Api = Xr_server.Api
module Json = Xr_server.Json
module Http = Xr_server.Http
module Server = Xr_server.Server

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- pool --------------------------------------------------------------- *)

let test_pool_fanout () =
  let pool = Xr_pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Xr_pool.shutdown pool)
    (fun () ->
      check Alcotest.int "size" 4 (Xr_pool.size pool);
      let hits = Atomic.make 0 in
      Xr_pool.run pool (Array.init 100 (fun _ () -> Atomic.incr hits));
      check Alcotest.int "every task ran" 100 (Atomic.get hits);
      (* a pool task may itself submit a batch: the submitter helps drain
         instead of blocking a worker, so this must not deadlock *)
      let nested = Atomic.make 0 in
      Xr_pool.run pool
        (Array.init 4 (fun _ () ->
             Xr_pool.run pool (Array.init 8 (fun _ () -> Atomic.incr nested))));
      check Alcotest.int "nested batches drain" 32 (Atomic.get nested);
      let c = Xr_pool.counters pool in
      check Alcotest.int "counter: domains" 4 c.Xr_pool.domains;
      check Alcotest.bool "counter: tasks" true (c.Xr_pool.tasks >= 132);
      check Alcotest.bool "counter: batches" true (c.Xr_pool.batches >= 2))

let test_pool_exception () =
  let pool = Xr_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Xr_pool.shutdown pool)
    (fun () ->
      let ran = Atomic.make 0 in
      (match
         Xr_pool.run pool
           [|
             (fun () -> Atomic.incr ran);
             (fun () -> failwith "boom");
             (fun () -> Atomic.incr ran);
           |]
       with
      | () -> Alcotest.fail "expected the task's exception to re-raise"
      | exception Failure m -> check Alcotest.string "exception carried" "boom" m);
      check Alcotest.int "remaining tasks still ran" 2 (Atomic.get ran))

let test_pool_try_help () =
  (* Three executors (two workers plus the submitting domain's help
     loop) each take one task and block on [release]; the fourth task
     stays in a deque — visible in [queue_depth] — until an outside
     domain donates its wait time through [try_help]. Start order picks
     which tasks block, so the schedule is deterministic: exactly one
     runnable task is queued when the main domain helps. *)
  let pool = Xr_pool.create ~domains:3 () in
  let started = Atomic.make 0 in
  let release = Atomic.make false in
  let helped_ran = Atomic.make 0 in
  let task () =
    if Atomic.fetch_and_add started 1 < 3 then
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    else Atomic.incr helped_ran
  in
  let submitter = Domain.spawn (fun () -> Xr_pool.run pool (Array.make 4 task)) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join submitter;
      Xr_pool.shutdown pool)
    (fun () ->
      while Atomic.get started < 3 do
        Domain.cpu_relax ()
      done;
      check Alcotest.int "one task still queued" 1 (Xr_pool.queue_depth pool);
      check Alcotest.bool "try_help takes it" true (Xr_pool.try_help pool);
      check Alcotest.int "helped task ran" 1 (Atomic.get helped_ran);
      check Alcotest.int "queue drained" 0 (Xr_pool.queue_depth pool);
      check Alcotest.bool "nothing left to help with" false (Xr_pool.try_help pool))

let test_pool_size_one_inline () =
  let pool = Xr_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Xr_pool.shutdown pool)
    (fun () ->
      let order = ref [] in
      Xr_pool.run pool (Array.init 5 (fun i () -> order := i :: !order));
      (* no worker domains: tasks run inline on the submitter, in order *)
      check Alcotest.(list int) "inline, submission order" [ 0; 1; 2; 3; 4 ]
        (List.rev !order);
      check Alcotest.int "no domains spawned" 1 (Xr_pool.counters pool).Xr_pool.domains)

(* ---- parallel SLCA = sequential SLCA ------------------------------------- *)

(* One pool shared by every equality check below; three total domains so
   chunk counts above, at, and below the parallelism all occur. *)
let shared_pool = lazy (Xr_pool.create ~domains:3 ())

let assert_all_chunkings ?(chunkings = [ 2; 3; 5; 8; 16; 64 ]) name lists =
  let pks = List.map P.of_list lists in
  let sequential = Scan_packed.compute pks in
  List.iter
    (fun chunks ->
      let got =
        Parallel.compute ~pool:(Lazy.force shared_pool) ~chunks ~threshold:0 pks
      in
      check Alcotest.bool
        (Printf.sprintf "%s: chunks=%d = sequential" name chunks)
        true
        (List.equal Dewey.equal got sequential))
    chunkings

let test_equal_prefix_runs () =
  (* Driver is one long run of siblings under a shared deep prefix: every
     split lands inside an equal-prefix region, the worst case for the
     boundary fix-up (the held candidate at each boundary is a prefix or
     sibling of the first candidates of the next chunk). *)
  let driver = List.init 64 (fun i -> [| 1; 1; i |]) in
  assert_all_chunkings "siblings, ancestor partner" [ driver; [ [| 1 |] ] ];
  assert_all_chunkings "siblings, sparse partner"
    [ driver; [ [| 1; 1; 5 |]; [| 1; 1; 40; 2 |]; [| 1; 1; 63 |] ] ];
  (* nested chain: each label a prefix of the next, so the online prune's
     silent-replace transition fires at every step *)
  let chain = List.init 32 (fun i -> Array.make (i + 1) 0) in
  assert_all_chunkings "prefix chain" [ chain; [ [| 0 |] ] ]

let test_zero_match_chunks () =
  (* Matches only at the extremes of the driver: middle chunks produce no
     survivors at all, and whole-chunk emptiness must not desynchronize
     the merge. *)
  let driver =
    List.init 20 (fun i -> [| 1; i |])
    @ List.init 20 (fun i -> [| 5; i |])
    @ List.init 20 (fun i -> [| 9; i |])
  in
  assert_all_chunkings "matches at extremes" [ driver; [ [| 1 |]; [| 9 |] ] ];
  assert_all_chunkings "no matches anywhere" [ driver; [ [| 7; 7; 7 |] ] ]

let test_more_chunks_than_postings () =
  (* chunk count far above the driver length: ranges clamp, some chunks
     are empty by construction *)
  assert_all_chunkings ~chunkings:[ 2; 3; 32 ] "tiny driver"
    [ [ [| 1; 1 |]; [| 1; 2 |]; [| 2; 0; 1 |] ]; [ [| 1 |]; [| 2 |] ] ]

let arb_case =
  let print (lists, chunks) =
    Printf.sprintf "chunks=%d lists=[%s]" chunks
      (String.concat "; "
         (List.map
            (fun l -> String.concat " " (List.map Dewey.to_string l))
            lists))
  in
  QCheck.make ~print
    QCheck.Gen.(pair (list_size (int_range 2 4) (Oracle.gen_sorted_labels 60)) (int_range 1 9))

let prop_parallel_eq_sequential =
  QCheck.Test.make ~name:"parallel scan = sequential scan, any chunking" ~count:300
    arb_case
    (fun (lists, chunks) ->
      let pks = List.map P.of_list lists in
      List.equal Dewey.equal
        (Parallel.compute ~pool:(Lazy.force shared_pool) ~chunks ~threshold:0 pks)
        (Scan_packed.compute pks))

(* ---- cost-modeled adaptive chunking --------------------------------------- *)

(* Pools of size 1, 2 and 4 for the adaptive-path property: size 1
   exercises the pool gate's sequential fallback, 2 and 4 run the
   chunked kernel below and at the auto chunk target. *)
let scaling_pools = lazy (List.map (fun d -> (d, Xr_pool.create ~domains:d ())) [ 1; 2; 4 ])

let full_ranges pks = List.map (fun pk -> (pk, 0, P.length pk)) pks

let prop_adaptive_chunker =
  QCheck.Test.make
    ~name:"cost-modeled chunking: exact driver partition, byte-identical at P=1/2/4"
    ~count:200 arb_case
    (fun (lists, chunks) ->
      let pks = List.map P.of_list lists in
      let ranges = full_ranges pks in
      let sequential = Scan_packed.compute pks in
      let driver_len =
        List.fold_left (fun acc l -> min acc (List.length l)) max_int lists
      in
      (match Parallel.measure ranges with
      | None -> ()
      | Some m ->
        (* the chunker must partition [0, driver_len) exactly: every
           driver posting scanned once, none dropped, none twice *)
        List.iter
          (fun k ->
            let bounds = Parallel.chunk_bounds m ~chunks:k in
            let n = Array.length bounds in
            if n < 2 || bounds.(0) <> 0 || bounds.(n - 1) <> driver_len then
              QCheck.Test.fail_reportf "bad endpoints [%s] for driver length %d"
                (String.concat ";" (Array.to_list (Array.map string_of_int bounds)))
                driver_len;
            for i = 0 to n - 2 do
              if bounds.(i) >= bounds.(i + 1) then
                QCheck.Test.fail_reportf "bounds not strictly increasing at %d" i
            done)
          [ 2; chunks + 1; 64 ];
        (* the adaptive path itself — measured masses, auto chunk count —
           must stay byte-identical to sequential on every pool size *)
        List.iter
          (fun (d, pool) ->
            let got = Parallel.compute_ranges ~pool ~threshold:0 ~masses:m ranges in
            if not (List.equal Dewey.equal got sequential) then
              QCheck.Test.fail_reportf "adaptive P=%d disagrees with sequential" d)
          (Lazy.force scaling_pools));
      true)

let test_skewed_mass_chunking () =
  (* Partner mass concentrated under the first 16 of 256 evenly spread
     driver entries: equal-cost splitting must pull the first chunk
     boundary well inside the heavy corner instead of handing one chunk
     a quarter of the driver (and most of the galloping work). *)
  let driver = List.init 256 (fun i -> [| i |]) in
  let partner =
    List.concat_map
      (fun i -> if i < 16 then List.init 250 (fun j -> [| i; j |]) else [ [| i; 0 |] ])
      (List.init 256 Fun.id)
  in
  let pks = List.map P.of_list [ driver; partner ] in
  let ranges = full_ranges pks in
  match Parallel.measure ranges with
  | None -> Alcotest.fail "measure returned None on a 256-entry driver"
  | Some m ->
    check Alcotest.bool "measured cost positive" true (Parallel.total_cost m > 0.);
    let bounds = Parallel.chunk_bounds m ~chunks:4 in
    let n = Array.length bounds in
    check Alcotest.int "starts at range start" 0 bounds.(0);
    check Alcotest.int "ends at range end" 256 bounds.(n - 1);
    check Alcotest.bool "first split pulled into the heavy corner" true (bounds.(1) < 64);
    let sequential = Scan_packed.compute pks in
    List.iter
      (fun (d, pool) ->
        check Alcotest.bool (Printf.sprintf "skewed adaptive P=%d = sequential" d) true
          (List.equal Dewey.equal
             (Parallel.compute_ranges ~pool ~threshold:0 ~masses:m ranges)
             sequential))
      (Lazy.force scaling_pools)

let test_threshold_fallback () =
  let old = Parallel.threshold () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_threshold old)
    (fun () ->
      Parallel.set_threshold max_int;
      let before = Parallel.fallbacks () in
      let pks = List.map P.of_list [ [ [| 1; 1 |]; [| 1; 2 |] ]; [ [| 1 |] ] ] in
      let seq = Scan_packed.compute pks in
      check Alcotest.bool "below threshold still correct" true
        (List.equal Dewey.equal (Parallel.compute pks) seq);
      check Alcotest.bool "fallback counted" true (Parallel.fallbacks () > before))

(* ---- parallel refinement determinism ------------------------------------- *)

let top2 (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  match
    List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
    |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)
  with
  | k1 :: k2 :: _ -> (k1, k2)
  | _ -> Alcotest.fail "corpus has fewer than two keywords"

(* The served JSON of /refine must not depend on whether candidate
   evaluations fanned out over the pool: force-parallel (threshold 0,
   4-way global pool) and force-sequential (infinite threshold, size-1
   pool) must render byte-identical payloads. *)
let test_refine_deterministic () =
  let corpora =
    [
      ("figure1", Index.build (Xr_data.Figure1.doc ()));
      ("dblp", Index.build (Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:42)));
    ]
  in
  let render index query alg =
    let config = { Rengine.default_config with Rengine.algorithm = alg } in
    Json.to_string (Api.refine_payload index ~query (Rengine.refine ~config index query))
  in
  let old = Parallel.threshold () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_threshold old;
      Xr_pool.reset_global ~domains:1 ())
    (fun () ->
      List.iter
        (fun (cname, index) ->
          let k1, k2 = top2 index in
          List.iter
            (fun query ->
              List.iter
                (fun alg ->
                  Parallel.set_threshold 0;
                  Xr_pool.reset_global ~domains:4 ();
                  let par = render index query alg in
                  Parallel.set_threshold max_int;
                  Xr_pool.reset_global ~domains:1 ();
                  let seq = render index query alg in
                  check Alcotest.string
                    (Printf.sprintf "%s/%s {%s}" cname (Rengine.algorithm_name alg)
                       (String.concat " " query))
                    seq par)
                [ Rengine.Partition; Rengine.Short_list_eager ])
            [ [ k1; k2; "zzparjunk" ]; [ k1; k2 ]; [ "zzonly" ] ])
        corpora)

(* ---- end-to-end: served bytes identical under pool sizes 1 and 4 --------- *)

let http_get fd target =
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" target in
  let n = Unix.write_substring fd req 0 (String.length req) in
  if n <> String.length req then Alcotest.fail "short write";
  match Http.read_response (Http.reader_of_fd fd) with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" target (Http.error_to_string e)

let get_closing port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> http_get fd target)

let with_server config index f =
  let server = Server.start config index in
  let acceptor = Domain.spawn (fun () -> Server.run server) in
  let port =
    match Server.bound_addr server with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "expected TCP"
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join acceptor)
    (fun () -> f port)

let test_server_pool_sizes () =
  let index = Index.build (Xr_data.Figure1.doc ()) in
  let targets =
    [
      "/search?q=database+title";
      "/search?q=title+year";
      "/refine?q=database+title+zzzsrvjunk";
      "/refine?q=zzzsrvonly";
    ]
  in
  (* cache off so every response is computed; threshold 0 so the 4-way
     run actually exercises the pool on this tiny corpus *)
  let config =
    {
      Server.default_config with
      Server.addr = Server.Tcp ("127.0.0.1", 0);
      domains = 2;
      log = false;
      cache_capacity = 0;
      parallel_threshold = 0;
    }
  in
  let fetch pool_domains =
    Xr_pool.reset_global ~domains:pool_domains ();
    with_server config index (fun port ->
        List.map
          (fun target ->
            let status, _, body = get_closing port target in
            check Alcotest.int (target ^ " 200") 200 status;
            body)
          targets)
  in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_threshold Parallel.default_threshold;
      Xr_pool.reset_global ~domains:1 ())
    (fun () ->
      List.iter2
        (fun target (seq, par) -> check Alcotest.string target seq par)
        targets
        (List.combine (fetch 1) (fetch 4)))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "fan-out and nested batches" `Quick test_pool_fanout;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "try_help drains a queued task" `Quick test_pool_try_help;
          Alcotest.test_case "size 1 runs inline" `Quick test_pool_size_one_inline;
        ] );
      ( "slca",
        [
          Alcotest.test_case "splits inside equal-prefix runs" `Quick test_equal_prefix_runs;
          Alcotest.test_case "zero-match chunks" `Quick test_zero_match_chunks;
          Alcotest.test_case "more chunks than postings" `Quick
            test_more_chunks_than_postings;
          Alcotest.test_case "threshold fallback" `Quick test_threshold_fallback;
          Alcotest.test_case "skewed mass moves the splits" `Quick test_skewed_mass_chunking;
          qcheck prop_parallel_eq_sequential;
          qcheck prop_adaptive_chunker;
        ] );
      ( "refine",
        [ Alcotest.test_case "parallel = sequential payloads" `Quick test_refine_deterministic ] );
      ( "server",
        [ Alcotest.test_case "pool sizes 1 and 4 serve identical bytes" `Quick
            test_server_pool_sizes ] );
    ]
