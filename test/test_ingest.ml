(* Online ingest: generation pinning, the bounded write queue, snapshot
   isolation of forks, equivalence with from-scratch rebuilds under any
   interleaving of ingests and queries, cache invalidation across index
   swaps, and sharded multi-corpus serving end to end. *)

open Xr_xml
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Generation = Xr_ingest.Generation
module Ingest = Xr_ingest.Ingest
module Server = Xr_server.Server
module Http = Xr_server.Http
module Json = Xr_server.Json
module Api = Xr_server.Api
module Engine = Xr_refine.Engine

let check = Alcotest.check

let contains hay needle =
  let n = String.length needle and len = String.length hay in
  let rec scan i = i + n <= len && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let fig1_tree () = Xr_data.Figure1.tree ()

let fig1 () = Index.build (Xr_data.Figure1.doc ())

(* The query payload bytes a single-corpus server would serve. *)
let search_bytes index query =
  let entries =
    let slcas = Engine.search index query in
    let ids = List.filter_map (Doc.keyword_id index.Index.doc) query in
    Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas
  in
  Json.to_string (Api.search_payload index ~query ~ranked:true ~limit:20 entries)

(* Full tree equivalent to ingesting [subtrees] (in order) on [base]. *)
let extended_tree base subtrees =
  { base with Tree.children = base.Tree.children @ List.map (fun s -> Tree.Elem s) subtrees }

(* ---- generations -------------------------------------------------------- *)

let test_generation_pin_publish () =
  let gens = Generation.create ~corpus:"t-gen" (fig1 ()) in
  check Alcotest.int "starts at generation 0" 0 (Generation.current_id gens);
  check Alcotest.int "one active generation" 1 (Generation.active gens);
  let g0 = Generation.pin gens in
  let idx1 = Index.append_partition (Index.fork g0.Generation.index) (Tree.leaf "extra" "pinme") in
  let g1 = Generation.publish gens idx1 in
  check Alcotest.int "published id" 1 g1.Generation.id;
  check Alcotest.int "current follows publish" 1 (Generation.current_id gens);
  (* the pinned snapshot still counts as active until released *)
  check Alcotest.int "pinned old gen still active" 2 (Generation.active gens);
  check Alcotest.bool "pinned snapshot unchanged" true
    (Doc.keyword_id g0.Generation.index.Index.doc "pinme" = None);
  Generation.unpin g0;
  let _g2 = Generation.publish gens (Index.fork idx1) in
  check Alcotest.int "released gens pruned" 1 (Generation.active gens);
  let r = Generation.with_pinned gens (fun g -> g.Generation.id) in
  check Alcotest.int "with_pinned sees current" 2 r

(* ---- ingest queue -------------------------------------------------------- *)

let test_ingest_queue_rejections () =
  let gens = Generation.create ~corpus:"t-queue" (fig1 ()) in
  let ingest =
    Ingest.create ~config:{ Ingest.queue_bound = 0; batch_max = 8 } gens
  in
  (match Ingest.submit ingest (Tree.leaf "x" "y") with
  | Error Ingest.Queue_full -> ()
  | _ -> Alcotest.fail "expected Queue_full with a zero bound");
  (match Ingest.submit_string ingest "<broken" with
  | Error (Ingest.Parse _) -> ()
  | _ -> Alcotest.fail "expected Parse error");
  Ingest.shutdown ingest;
  (match Ingest.submit ingest (Tree.leaf "x" "y") with
  | Error Ingest.Shutdown -> ()
  | _ -> Alcotest.fail "expected Shutdown after shutdown");
  check Alcotest.int "nothing indexed" 0 (Ingest.docs_indexed ingest)

let test_ingest_flush_and_publish () =
  let gens = Generation.create ~corpus:"t-flush" (fig1 ()) in
  let published = Atomic.make 0 in
  let ingest =
    Ingest.create
      ~config:{ Ingest.queue_bound = 16; batch_max = 2 }
      ~on_publish:(fun _ -> Atomic.incr published)
      gens
  in
  List.iter
    (fun i ->
      match
        Ingest.submit_string ingest
          (Printf.sprintf "<inproceedings><title>flushdoc%d</title></inproceedings>" i)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit %d: %s" i (Ingest.error_to_string e))
    [ 1; 2; 3; 4; 5 ];
  let gen = Ingest.flush ingest in
  check Alcotest.bool "generation advanced" true (gen >= 1);
  check Alcotest.int "all docs indexed" 5 (Ingest.docs_indexed ingest);
  check Alcotest.bool "on_publish fired per batch" true (Atomic.get published >= 1);
  let index = (Generation.current gens).Generation.index in
  check Alcotest.bool "flushed docs queryable" true
    (Engine.search index [ "flushdoc3" ] <> []);
  Ingest.shutdown ingest

(* ---- snapshot isolation -------------------------------------------------- *)

let test_fork_isolation () =
  let index = fig1 () in
  let queries = [ [ "xml"; "database" ]; [ "levy" ]; [ "title" ] ] in
  let before = List.map (search_bytes index) queries in
  let fork = Index.fork index in
  let _fork2 =
    Index.append_partition fork
      (Tree.elem "inproceedings"
         [ Tree.Elem (Tree.leaf "title" "xml database levy title fresh") ])
  in
  let after = List.map (search_bytes index) queries in
  List.iter2 (check Alcotest.string "original index bytes undisturbed") before after

(* ---- equivalence with from-scratch rebuilds ------------------------------ *)

let subtree_gen =
  let open QCheck.Gen in
  let tag = oneofl [ "article"; "note"; "entry" ] in
  let word = oneofl [ "xml"; "query"; "zeta"; "levy"; "database"; "fresh" ] in
  let leaf = map2 (fun t ws -> Tree.elem t [ Tree.Text (String.concat " " ws) ])
      tag (list_size (int_range 1 3) word)
  in
  fun st ->
    let t = tag st in
    let children = list_size (int_range 1 3) leaf st in
    Tree.elem t (List.map (fun c -> Tree.Elem c) children)

let equivalence_queries =
  [ [ "xml" ]; [ "query"; "xml" ]; [ "zeta" ]; [ "levy"; "database" ]; [ "fresh" ] ]

(* After ANY interleaving of ingests and queries, the served bytes must
   equal a from-scratch index over the same document set. Stepwise: query
   after every single-document publish (each prefix is observable).
   Batched: submit everything, flush once (documents may share a
   generation), compare the final state. *)
let prop_ingest_equals_rebuild =
  QCheck.Test.make ~name:"ingest interleavings = from-scratch rebuild" ~count:20
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map Xr_xml.Printer.to_string l))
       QCheck.Gen.(list_size (int_range 1 5) subtree_gen))
    (fun subtrees ->
      let base = fig1_tree () in
      (* stepwise: one doc per flush *)
      let gens = Generation.create ~corpus:"t-prop" (Index.build (Doc.of_tree base)) in
      let ingest = Ingest.create ~config:{ Ingest.queue_bound = 64; batch_max = 1 } gens in
      let ok = ref true in
      List.iteri
        (fun i sub ->
          (match Ingest.submit ingest sub with
          | Ok () -> ()
          | Error e -> Alcotest.failf "submit: %s" (Ingest.error_to_string e));
          ignore (Ingest.flush ingest : int);
          let prefix = List.filteri (fun j _ -> j <= i) subtrees in
          let rebuilt = Index.build (Doc.of_tree (extended_tree base prefix)) in
          let served = (Generation.current gens).Generation.index in
          List.iter
            (fun q ->
              if search_bytes served q <> search_bytes rebuilt q then ok := false)
            equivalence_queries)
        subtrees;
      Ingest.shutdown ingest;
      (* batched: several docs may merge into one generation *)
      let gens2 = Generation.create ~corpus:"t-prop2" (Index.build (Doc.of_tree base)) in
      let ingest2 = Ingest.create ~config:{ Ingest.queue_bound = 64; batch_max = 2 } gens2 in
      List.iter (fun s -> ignore (Ingest.submit ingest2 s)) subtrees;
      ignore (Ingest.flush ingest2 : int);
      let rebuilt = Index.build (Doc.of_tree (extended_tree base subtrees)) in
      let served = (Generation.current gens2).Generation.index in
      List.iter
        (fun q -> if search_bytes served q <> search_bytes rebuilt q then ok := false)
        equivalence_queries;
      Ingest.shutdown ingest2;
      !ok)

let run_prop_with_pool domains () =
  Xr_pool.reset_global ~domains ();
  Fun.protect
    ~finally:(fun () -> Xr_pool.reset_global ~domains:1 ())
    (fun () -> QCheck.Test.check_exn prop_ingest_equals_rebuild)

(* Readers race the writer: a domain hammers a pinned query while
   documents are ingested. Every response must be byte-identical to a
   rebuild over some prefix of the submitted documents — never a torn
   in-between state — and readers never block (the loop makes progress
   through every swap). *)
let test_concurrent_readers_see_prefixes () =
  let base = fig1_tree () in
  let docs =
    List.init 6 (fun i ->
        Tree.elem "article" [ Tree.Elem (Tree.leaf "title" (Printf.sprintf "race doc%d xml" i)) ])
  in
  let query = [ "xml" ] in
  let valid =
    List.init (List.length docs + 1) (fun n ->
        let prefix = List.filteri (fun j _ -> j < n) docs in
        search_bytes (Index.build (Doc.of_tree (extended_tree base prefix))) query)
  in
  let gens = Generation.create ~corpus:"t-race" (Index.build (Doc.of_tree base)) in
  let ingest = Ingest.create ~config:{ Ingest.queue_bound = 64; batch_max = 1 } gens in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let body =
            Generation.with_pinned gens (fun g -> search_bytes g.Generation.index query)
          in
          Atomic.incr reads;
          if not (List.mem body valid) then Atomic.incr bad
        done)
  in
  List.iter
    (fun d ->
      ignore (Ingest.submit ingest d);
      ignore (Ingest.flush ingest : int))
    docs;
  (* the ingests can outrun the reader domain's spawn; keep serving the
     final state until it has observed a healthy number of snapshots *)
  let t0 = Unix.gettimeofday () in
  while Atomic.get reads < 20 && Unix.gettimeofday () -. t0 < 10. do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Domain.join reader;
  Ingest.shutdown ingest;
  check Alcotest.int "no torn reads" 0 (Atomic.get bad);
  check Alcotest.bool "readers made progress" true (Atomic.get reads > 0)

(* ---- persistence --------------------------------------------------------- *)

let test_ingest_persists_to_store () =
  let path = Filename.temp_file "xr_ingest" ".xrdb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let kv = Xr_store.Kv.btree_file path in
  let index = fig1 () in
  Index.save index kv;
  let gens = Generation.create ~corpus:"t-persist" index in
  let ingest = Ingest.create ~kv gens in
  (match
     Ingest.submit_string ingest "<article><title>durable zeta</title></article>"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit: %s" (Ingest.error_to_string e));
  ignore (Ingest.flush ingest : int);
  Ingest.shutdown ingest;
  kv.Xr_store.Kv.close ();
  let reopened = Index.load (Xr_store.Kv.btree_file path) in
  check Alcotest.string "reopened store serves the ingested doc"
    (search_bytes (Generation.current gens).Generation.index [ "zeta" ])
    (search_bytes reopened [ "zeta" ])

(* ---- server end to end --------------------------------------------------- *)

let with_corpora config specs f =
  let server = Server.start_corpora config specs in
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

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let request port text =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Http.write_all fd text;
      match Http.read_response (Http.reader_of_fd fd) with
      | Ok r -> r
      | Error e -> Alcotest.failf "response: %s" (Http.error_to_string e))

let http_get port target =
  request port (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n" target)

let http_post port target body =
  request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
       target (String.length body) body)

let json_of body =
  match Json.of_string body with
  | Ok v -> v
  | Error msg -> Alcotest.failf "not JSON (%s): %s" msg body

let json_int path v =
  match Json.member path v with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "missing int field %s" path

let base_config =
  {
    Server.default_config with
    Server.addr = Server.Tcp ("127.0.0.1", 0);
    domains = 2;
    log = false;
    ingest_batch = 4;
  }

(* A stale cached response must never survive the index swap: the same
   query served before and after a synced ingest must change, even
   though the first response was cached (generation-tagged keys plus
   clear-on-publish). *)
let test_stale_cache_never_served_after_ingest () =
  with_corpora base_config
    [ { Server.name = "default"; index = fig1 (); kv = None } ]
    (fun port ->
      let target = "/search?q=freshkeyword" in
      let status, headers, body0 = http_get port target in
      check Alcotest.int "pre-ingest 200" 200 status;
      check Alcotest.int "unknown keyword: no results" 0 (json_int "count" (json_of body0));
      (* cache it *)
      let _, headers1, body1 = http_get port target in
      check Alcotest.(option string) "second read is a cache hit" (Some "hit")
        (List.assoc_opt "x-cache" headers1);
      check Alcotest.string "hit serves identical bytes" body0 body1;
      ignore headers;
      let status, _, ibody =
        http_post port "/ingest?sync=true"
          "<article><title>freshkeyword appears</title></article>"
      in
      check Alcotest.int "ingest 200" 200 status;
      let iv = json_of ibody in
      check Alcotest.bool "accepted" true (Json.member "accepted" iv = Some (Json.Bool true));
      check Alcotest.bool "generation advanced" true (json_int "generation" iv >= 1);
      let _, headers2, body2 = http_get port target in
      check Alcotest.int "post-ingest result visible" 1 (json_int "count" (json_of body2));
      check Alcotest.(option string) "stale entry not served" (Some "miss")
        (List.assoc_opt "x-cache" headers2);
      check Alcotest.bool "bytes changed" true (body2 <> body0);
      (* GET on /ingest is a 405, other endpoints still reject non-GET *)
      let status, _, _ = http_get port "/ingest" in
      check Alcotest.int "GET /ingest is 405" 405 status)

let catalog_index () =
  Index.build
    (Doc.of_tree
       (Tree.elem "catalog"
          [
            Tree.Elem
              (Tree.elem "item"
                 [
                   Tree.Elem (Tree.leaf "name" "xml handbook");
                   Tree.Elem (Tree.leaf "vendor" "acme shelf");
                 ]);
            Tree.Elem
              (Tree.elem "item" [ Tree.Elem (Tree.leaf "name" "query planner guide") ]);
          ]))

let test_sharded_scatter_gather () =
  with_corpora
    { base_config with Server.shards = 2 }
    [
      { Server.name = "bib"; index = fig1 (); kv = None };
      { Server.name = "catalog"; index = catalog_index (); kv = None };
    ]
    (fun port ->
      (* both corpora answer: "xml" occurs in each *)
      let status, _, body = http_get port "/search?q=xml&rank=true" in
      check Alcotest.int "scatter 200" 200 status;
      let v = json_of body in
      check Alcotest.bool "merged schema reports shards" true (json_int "shards" v = 2);
      (match Json.member "results" v with
      | Some (Json.List items) ->
        let corpus_of item =
          match Json.member "corpus" item with Some (Json.String s) -> s | _ -> "?"
        in
        let corpora = List.sort_uniq String.compare (List.map corpus_of items) in
        check Alcotest.(list string) "results from both corpora" [ "bib"; "catalog" ] corpora
      | _ -> Alcotest.fail "results missing");
      (* corpus filter restricts the scatter *)
      let _, _, fbody = http_get port "/search?q=xml&corpus=catalog" in
      let fv = json_of fbody in
      (match Json.member "results" fv with
      | Some (Json.List items) ->
        check Alcotest.bool "filtered to one corpus" true
          (items <> []
          && List.for_all
               (fun item -> Json.member "corpus" item = Some (Json.String "catalog"))
               items)
      | _ -> Alcotest.fail "filtered results missing");
      let status, _, _ = http_get port "/search?q=xml&corpus=nope" in
      check Alcotest.int "unknown corpus is 404" 404 status;
      (* ingest into one corpus only; the doc appears without restart *)
      let pre = json_int "count" (json_of fbody) in
      let status, _, _ =
        http_post port "/ingest?corpus=catalog&sync=true"
          "<item><name>fresh xml almanac</name></item>"
      in
      check Alcotest.int "sharded ingest 200" 200 status;
      let _, _, fbody2 = http_get port "/search?q=xml&corpus=catalog" in
      check Alcotest.int "ingested doc visible in its corpus" (pre + 1)
        (json_int "count" (json_of fbody2));
      (* ingest without corpus is ambiguous with several corpora *)
      let status, _, _ = http_post port "/ingest?sync=true" "<x>y</x>" in
      check Alcotest.int "ambiguous corpus is 400" 400 status;
      (* merged completion tallies across corpora *)
      let _, _, cbody = http_get port "/complete?prefix=x" in
      check Alcotest.bool "completion merged across corpora" true
        (contains cbody "\"keyword\":\"xml\"");
      (* ingest metrics exported *)
      let _, _, prom = http_get port "/metrics" in
      check Alcotest.bool "docs indexed counter" true
        (contains prom "xr_ingest_docs_indexed_total{corpus=\"catalog\"}");
      check Alcotest.bool "queue depth gauge" true (contains prom "xr_ingest_queue_depth{");
      check Alcotest.bool "merge histogram" true
        (contains prom "# TYPE xr_ingest_merge_duration_ms histogram");
      check Alcotest.bool "active generations gauge" true
        (contains prom "xr_ingest_active_generations{"))

(* Hostile nesting fails closed at the parser: one element past the
   64-level limit is a 400 counted as a parse rejection; the limit itself
   is accepted. *)
let test_deep_nesting_rejected () =
  with_corpora base_config
    [ { Server.name = "deep"; index = fig1 (); kv = None } ]
    (fun port ->
      let rejected () =
        let _, _, prom = http_get port "/metrics" in
        let key = "xr_ingest_rejected_total{corpus=\"deep\",reason=\"parse\"} " in
        let n = String.length key in
        List.fold_left
          (fun acc line ->
            if String.starts_with ~prefix:key line then
              int_of_float (float_of_string (String.sub line n (String.length line - n)))
            else acc)
          0
          (String.split_on_char '\n' prom)
      in
      let chain n =
        String.concat "" (List.init n (fun _ -> "<a>"))
        ^ "deepterm"
        ^ String.concat "" (List.init n (fun _ -> "</a>"))
      in
      let before = rejected () in
      let status, _, _ = http_post port "/ingest?sync=true" (chain 65) in
      check Alcotest.int "65 levels is a 400" 400 status;
      check Alcotest.int "one more parse rejection" (before + 1) (rejected ());
      let status, _, _ = http_post port "/ingest?sync=true" (chain 64) in
      check Alcotest.int "64 levels are accepted" 200 status)

let () =
  Alcotest.run "xr_ingest"
    [
      ( "generations",
        [ Alcotest.test_case "pin, publish, active counts" `Quick test_generation_pin_publish ] );
      ( "queue",
        [
          Alcotest.test_case "rejections" `Quick test_ingest_queue_rejections;
          Alcotest.test_case "flush publishes batches" `Quick test_ingest_flush_and_publish;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          Alcotest.test_case "interleavings = rebuild, pool size 1" `Quick
            (run_prop_with_pool 1);
          Alcotest.test_case "interleavings = rebuild, pool size 4" `Quick
            (run_prop_with_pool 4);
          Alcotest.test_case "concurrent readers see whole prefixes" `Quick
            test_concurrent_readers_see_prefixes;
        ] );
      ( "persistence",
        [ Alcotest.test_case "published generations survive reopen" `Quick
            test_ingest_persists_to_store ] );
      ( "server",
        [
          Alcotest.test_case "stale cache never served after ingest" `Quick
            test_stale_cache_never_served_after_ingest;
          Alcotest.test_case "shards=2 scatter-gather + live ingest" `Quick
            test_sharded_scatter_gather;
          Alcotest.test_case "deep nesting is a 400" `Quick test_deep_nesting_rejected;
        ] );
    ]
