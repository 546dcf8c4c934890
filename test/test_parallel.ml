(* Domain parallelism: the work-stealing pool's contract (fan-out, help
   loop, nested batches, exception propagation, size-1 inline mode) and
   determinism of the pool's serving path, the multi-shard scatter, up
   to the served bytes. *)

module Index = Xr_index.Index
module Http = Xr_server.Http
module Server = Xr_server.Server

let check = Alcotest.check

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

let with_server config specs f =
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

(* Two corpora on two serving shards: every request that addresses both
   scatters one shard render per pool task ([Server.fan_out]), the
   pool's one serving path. *)
let test_server_pool_sizes () =
  let corpus name doc = { Server.name; index = Index.build doc; kv = None } in
  let specs =
    [
      corpus "figure1" (Xr_data.Figure1.doc ());
      corpus "dblp" (Xr_xml.Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:42));
    ]
  in
  let targets =
    [
      "/search?q=database+title";
      "/search?q=title+year";
      "/refine?q=database+title+zzzsrvjunk";
      "/refine?q=zzzsrvonly";
    ]
  in
  (* cache off so every response is computed *)
  let config =
    {
      Server.default_config with
      Server.addr = Server.Tcp ("127.0.0.1", 0);
      domains = 2;
      log = false;
      cache_capacity = 0;
    }
  in
  let fetch pool_domains =
    Xr_pool.reset_global ~domains:pool_domains ();
    let bodies =
      with_server config specs (fun port ->
          List.map
            (fun target ->
              let status, _, body = get_closing port target in
              check Alcotest.int (target ^ " 200") 200 status;
              body)
            targets)
    in
    let tasks = (Xr_pool.counters (Xr_pool.global ())).Xr_pool.tasks in
    check Alcotest.bool
      (Printf.sprintf "pool %d ran the scatter" pool_domains)
      true
      (tasks >= 2 * List.length targets);
    bodies
  in
  Fun.protect
    ~finally:(fun () -> Xr_pool.reset_global ~domains:1 ())
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
      ( "server",
        [ Alcotest.test_case "pool sizes 1 and 4 serve identical bytes" `Quick
            test_server_pool_sizes ] );
    ]
