(* The perfbench load process: sets a deployment up, drives it from two
   client connections, and ends every run with the correctness gate.

   run.py generates every statement from the seed and writes them into
   the run directory; this program only replays them.  Inputs in DIR:
     schema.sql, preload.sql, post.sql   one statement per line
     ops0.txt, ops1.txt                  "<class>\t<statement>" per line
     gate.txt                            "query\t<sql>" or
                                         "view\t<name>\t<defining sql>"
     subscribe.txt (optional)            "<name>\t<query>", held by
                                         connection 0
   A statement may carry "@NOW+k", replaced at send time by the clock
   this process has seen acknowledged plus k.

   Outputs in DIR, plain text that run.py turns into metrics:
     setup.txt, window_<label>.txt, samples_<label>.txt, spans.tsv,
     metrics_<phase>_<node>.prom, stats_<phase>_<node>.txt,
     lag_samples.txt, replay.txt, gate_result.txt

   Spans and samples stay in memory until a window ends.  Nothing here
   reaches inside the servers: per-layer numbers come from these
   client-side spans, from the servers' own METRICS/STATS, and from an
   in-process replay through the libraries' public functions. *)

open Expirel_core
open Expirel_server
module Interp = Expirel_sqlx.Interp
module Parser = Expirel_sqlx.Parser
module Lower = Expirel_sqlx.Lower
module Ast = Expirel_sqlx.Ast
module Database = Expirel_storage.Database
module Table = Expirel_storage.Table
module Planner = Expirel_exec.Planner
module Executor = Expirel_exec.Executor
module Profile = Expirel_exec.Profile
module Coordinator = Expirel_cluster.Coordinator

let dir = ref "."
let seconds = ref 10.
let traced = ref false
let setup_only = ref false
let primary = ref 0
let replica = ref 0
let shards = ref ""
let rate = ref 0.
let think = ref 0.
let warmup = ref 1
let block_sizes = ref "100,100"
let tables = ref ""
let data_dir = ref ""

let specs =
  [ ("--dir", Arg.Set_string dir, "DIR run directory (inputs and outputs)");
    ("--seconds", Arg.Set_float seconds, "S length of each measured window");
    ("--trace", Arg.Set traced, " traced run: untraced + traced window, \
                                 counter diffs, replay");
    ("--setup-only", Arg.Set setup_only, " stop after set-up");
    ("--primary", Arg.Set_int primary, "PORT the single server");
    ("--replica", Arg.Set_int replica, "PORT the primary's replica");
    ("--shards", Arg.Set_string shards, "P1,P2,.. shard ports");
    ("--rate", Arg.Set_float rate,
     "R pace connection 0 at R requests/s (0: closed loop)");
    ("--think", Arg.Set_float think,
     "S connection 1 waits S seconds between a reply and its next request");
    ("--warmup", Arg.Set_int warmup, "N warm-up blocks per connection");
    ("--blocks", Arg.Set_string block_sizes,
     "B0,B1 statements per block of ops0.txt and ops1.txt");
    ("--tables", Arg.Set_string tables, "T1,T2,.. base tables for the gate");
    ("--data-dir", Arg.Set_string data_dir, "DIR the primary's data directory") ]

(* statements per connection the in-process replay runs *)
let replay_ops = 500

let host = "127.0.0.1"
let now = Unix.gettimeofday
let path f = Filename.concat !dir f

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("load: " ^ s);
      exit 2)
    fmt

let read_lines f =
  if not (Sys.file_exists (path f)) then []
  else
    In_channel.with_open_text (path f) In_channel.input_lines
    |> List.filter (fun l -> l <> "")

let write_file f text =
  Out_channel.with_open_text (path f) (fun oc -> output_string oc text)

let kv pairs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s %s\n" k v) pairs)

let split_tab line =
  match String.index_opt line '\t' with
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> die "malformed input line %S" line

let int_list s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

(* ---------- connections and replies ---------- *)

type conn = Direct of Client.t | Routed of Coordinator.t

type reply = Response of Wire.response | Transport of string

let connect port = Client.connect ~host ~port ()

let send conn sql =
  match conn with
  | Direct c ->
    (match Client.exec c sql with
     | Ok r -> Response r
     | Error e -> Transport e)
  | Routed co -> Response (Coordinator.exec co sql)

let code_name : Wire.error_code -> string = function
  | Parse_error -> "err:parse"
  | Exec_error -> "err:exec"
  | Proto_error -> "err:proto"
  | Timeout -> "err:timeout"
  | Overloaded -> "err:overloaded"
  | Shutting_down -> "err:shutting_down"
  | Version_mismatch -> "err:version"
  | Shard_failed -> "err:shard_failed"

(* Every outcome is one of: ok, an [Err] by code, a receive timeout, or
   another transport failure.  Nothing is retried. *)
let outcome = function
  | Response (Wire.Err { code; _ }) -> code_name code
  | Response _ -> "ok"
  | Transport "receive timeout" -> "timeout"
  | Transport _ -> "transport"

let must conn sql =
  match send conn sql with
  | Response (Wire.Err { message; _ }) ->
    die "set-up statement %S failed: %s" sql message
  | Transport e -> die "set-up statement %S: %s" sql e
  | Response r -> r

(* ---------- the clock mirror and "@NOW+k" ---------- *)

let clock = Atomic.make 0

let subst_now ~now_value sql =
  match String.index_opt sql '@' with
  | None -> sql
  | Some i ->
    let prefix = "@NOW+" in
    let j = i + String.length prefix in
    if String.length sql < j || String.sub sql i (String.length prefix) <> prefix
    then die "unknown placeholder in %S" sql;
    let k = ref j in
    while !k < String.length sql && sql.[!k] >= '0' && sql.[!k] <= '9' do
      incr k
    done;
    let offset = int_of_string (String.sub sql j (!k - j)) in
    String.sub sql 0 i
    ^ string_of_int (now_value + offset)
    ^ String.sub sql !k (String.length sql - !k)

let show_now client =
  match Client.exec client "SHOW NOW" with
  | Ok (Wire.Ok_msg s) ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> die "SHOW NOW answered %S" s)
  | Ok r -> die "SHOW NOW answered %s" (Wire.render_response r)
  | Error e -> die "SHOW NOW: %s" e

(* ---------- workers ---------- *)

type op = { cls : string; sql : string }

let load_ops f =
  read_lines f
  |> List.map (fun l ->
         let cls, sql = split_tab l in
         { cls; sql })
  |> Array.of_list

(* One benchmark-owned span per request: who sent it, its class, when
   it was due, sent and answered, and how it ended. *)
type span = {
  id : int;
  conn_ix : int;
  cls : string;
  result : string;
  due : float;
  start : float;
  stop : float;
}

type worker = {
  ix : int;
  conn : conn;
  ops : op array;
  mutable cursor : int;
  block : int;  (* statements per block of the stream *)
  paced : float;  (* requests per second; 0 = closed loop *)
  think : float;  (* closed loop: seconds between a reply and the next send *)
  mutable spans : span list;
  mutable view_reads : int;
  mutable view_recomputed : int;
  mutable last_write : float;
  mutable user_bytes : int;
}

let request_ids = Atomic.make 0

let is_view_read sql =
  String.length sql > 9 && String.sub sql 0 9 = "SHOW VIEW"

(* Runs whole blocks of the worker's stream: [blocks] of them, or as
   many as start before [deadline].  Every block holds the workload's
   exact mix, so a window never cuts the mix short. *)
let run_worker w ~blocks ~deadline =
  let t0 = now () in
  let i = ref 0 in
  let at_boundary () = w.cursor mod w.block = 0 in
  let more () =
    match blocks, deadline with
    | Some n, _ -> !i < n * w.block
    | None, Some d -> not (at_boundary () && now () >= d)
    | None, None -> false
  in
  let len = Array.length w.ops in
  while more () do
    let op = w.ops.(w.cursor mod len) in
    if w.think > 0. && !i > 0 then Thread.delay w.think;
    let due =
      if w.paced > 0. then t0 +. (float_of_int !i /. w.paced) else now ()
    in
    let wait = due -. now () in
    if wait > 0. then Thread.delay wait;
    w.cursor <- w.cursor + 1;
    let sql = subst_now ~now_value:(Atomic.get clock) op.sql in
    let start = now () in
    let reply = send w.conn sql in
    let stop = now () in
    let result = outcome reply in
    if result = "ok" && op.cls = "advance" then Atomic.incr clock;
    if op.cls = "write" then begin
      w.last_write <- stop;
      w.user_bytes <- w.user_bytes + String.length sql
    end;
    if is_view_read sql then begin
      w.view_reads <- w.view_reads + 1;
      match reply with
      | Response (Wire.Rows { recomputed = true; _ }) ->
        w.view_recomputed <- w.view_recomputed + 1
      | _ -> ()
    end;
    (* subscription events queue up on connection 0; drop them *)
    (match w.conn with Direct c -> ignore (Client.events c) | Routed _ -> ());
    w.spans <-
      { id = Atomic.fetch_and_add request_ids 1;
        conn_ix = w.ix;
        cls = op.cls;
        result;
        due;
        start;
        stop
      }
      :: w.spans;
    incr i
  done

let reset w =
  w.spans <- [];
  w.view_reads <- 0;
  w.view_recomputed <- 0;
  w.user_bytes <- 0

let run_all workers ~blocks ~deadline =
  List.map
    (fun w -> Thread.create (fun () -> run_worker w ~blocks ~deadline) ())
    workers
  |> List.iter Thread.join

(* ---------- counters read from the servers ---------- *)

type nodes = {
  clients : (string * Client.t) list;  (* admin connection per node *)
  coordinator : Coordinator.t option;
}

let stats_text (s : Wire.stats) =
  kv
    (("tuples_expired", string_of_int s.tuples_expired)
     :: (match s.repl with
         | Some r -> [ ("repl_position", string_of_int r.position) ]
         | None -> []))

let snapshot_counters nodes phase =
  List.iter
    (fun (name, c) ->
      (match Client.metrics c with
       | Ok text -> write_file (Printf.sprintf "metrics_%s_%s.prom" phase name) text
       | Error e -> die "METRICS from %s: %s" name e);
      match Client.stats c with
      | Ok s -> write_file (Printf.sprintf "stats_%s_%s.txt" phase name) (stats_text s)
      | Error e -> die "STATS from %s: %s" name e)
    nodes.clients;
  Option.iter
    (fun co ->
      write_file
        (Printf.sprintf "metrics_%s_coordinator.prom" phase)
        (Coordinator.metrics co))
    nodes.coordinator

let dir_bytes d =
  if d = "" then 0
  else
    let rec walk p =
      match Unix.stat p with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.fold_left
          (fun acc f -> acc + walk (Filename.concat p f))
          0 (Sys.readdir p)
      | { Unix.st_size; _ } -> st_size
      | exception Unix.Unix_error _ -> 0
    in
    walk d

let repl_stats c =
  match Client.stats c with
  | Ok { Wire.repl = Some r; _ } -> Some r
  | Ok _ | Error _ -> None

(* The replica has caught up when it has applied everything the primary
   has logged. *)
let wait_caught_up ~primary_client ~replica_client ~limit =
  let target =
    match repl_stats primary_client with
    | Some r -> r.position
    | None -> die "primary reports no replication state"
  in
  let deadline = now () +. limit in
  let rec poll () =
    match repl_stats replica_client with
    | Some r when r.position >= target && r.lag_records = 0 -> now ()
    | _ when now () > deadline -> die "replica did not catch up in %.0f s" limit
    | _ ->
      Thread.delay 0.001;
      poll ()
  in
  poll ()

(* ---------- a measured window ---------- *)

let write_window ~label ~t0 ~t1 workers extra =
  let spans = List.concat_map (fun w -> w.spans) workers in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun s ->
      Printf.bprintf buf "%d %s %s %.1f %.1f %.1f\n" s.conn_ix s.cls s.result
        ((s.stop -. s.due) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        ((s.stop -. t0) *. 1e6))
    spans;
  write_file (Printf.sprintf "samples_%s.txt" label) (Buffer.contents buf);
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  write_file
    (Printf.sprintf "window_%s.txt" label)
    (kv
       ([ ("elapsed_s", Printf.sprintf "%.6f" (t1 -. t0));
          ("view_reads", string_of_int (sum (fun w -> w.view_reads)));
          ("view_recomputed", string_of_int (sum (fun w -> w.view_recomputed)));
          ("user_bytes", string_of_int (sum (fun w -> w.user_bytes))) ]
       @ extra));
  spans

let write_spans spans ~t0 =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "id\tconn\tclass\toutcome\tdue_us\tstart_us\tend_us\n";
  List.sort (fun a b -> compare a.id b.id) spans
  |> List.iter (fun s ->
         Printf.bprintf buf "%d\t%d\t%s\t%s\t%.1f\t%.1f\t%.1f\n" s.id s.conn_ix
           s.cls s.result
           ((s.due -. t0) *. 1e6)
           ((s.start -. t0) *. 1e6)
           ((s.stop -. t0) *. 1e6));
  write_file "spans.tsv" (Buffer.contents buf)

(* ---------- the correctness gate ---------- *)

let sorted_rows rows = List.sort compare rows

let rows_of_relation r =
  Relation.to_list r |> List.map (fun (t, e) -> (Tuple.to_list t, e))
  |> sorted_rows

let dump clients table =
  let columns = ref [] in
  let rows =
    List.concat_map
      (fun c ->
        match Client.exec c ("SELECT * FROM " ^ table) with
        | Ok (Wire.Rows { columns = cs; rows; _ }) ->
          columns := cs;
          rows
        | Ok r -> die "dump of %s: %s" table (Wire.render_response r)
        | Error e -> die "dump of %s: %s" table e)
      clients
  in
  let arity = List.length !columns in
  ( !columns,
    Relation.of_list ~arity
      (List.map (fun (vs, texp) -> (Tuple.of_list vs, texp)) rows) )

type expected =
  | Exact of (Value.t list * Time.t) list * Time.t
  | Estimate of int  (* APPROX_COUNT: the exact live count *)

(* The reference evaluator runs a join as a nested loop, which at these
   table sizes takes minutes.  An equi-join of two base tables is
   therefore evaluated once per join-key value — tuples with different
   keys never join — by the same [Eval.run] over the same rows, and its
   result stands in for the join as a fresh base relation. *)
let split_equi_joins ~env ~tau expr =
  let bound = ref [] and texp = ref Time.infinity in
  let arity name = Relation.arity (Option.get (env name)) in
  let group rel pos =
    let h = Hashtbl.create 1024 in
    Relation.iter
      (fun t e ->
        let k = Tuple.attr t pos in
        Hashtbl.replace h k
          ((t, e) :: Option.value ~default:[] (Hashtbl.find_opt h k)))
      rel;
    h
  in
  let rec go (e : Algebra.t) : Algebra.t =
    match e with
    | Join (p, Base a, Base b) when a <> b ->
      (match Predicate.equi_split ~left_arity:(arity a) p with
       | Some { pairs = (i, j) :: _; _ } ->
         let gb = group (Option.get (env b)) j in
         let out = ref (Relation.empty ~arity:(arity a + arity b)) in
         Hashtbl.iter
           (fun k rows_a ->
             match Hashtbl.find_opt gb k with
             | None -> ()
             | Some rows_b ->
               let part =
                 Eval.env_of_list
                   [ (a, Relation.of_list ~arity:(arity a) rows_a);
                     (b, Relation.of_list ~arity:(arity b) rows_b) ]
               in
               let r = Eval.run ~env:part ~tau e in
               out := Relation.union_max !out r.relation;
               texp := Time.min !texp r.texp)
           (group (Option.get (env a)) i);
         let name = Printf.sprintf "__join%d" (List.length !bound) in
         bound := (name, !out) :: !bound;
         Base name
       | Some { pairs = []; _ } | None -> e)
    | Base _ -> e
    | Select (p, x) -> Select (p, go x)
    | Project (ps, x) -> Project (ps, go x)
    | Aggregate (g, f, x) -> Aggregate (g, f, go x)
    | Product (x, y) -> Product (go x, go y)
    | Union (x, y) -> Union (go x, go y)
    | Join (p, x, y) -> Join (p, go x, go y)
    | Intersect (x, y) -> Intersect (go x, go y)
    | Diff (x, y) -> Diff (go x, go y)
  in
  let expr = go expr in
  let env name =
    match List.assoc_opt name !bound with Some r -> Some r | None -> env name
  in
  (expr, env, !texp)

let reference ~env ~catalog ~now sql =
  match Parser.parse_statement sql with
  | Ast.Query { q; at; _ } ->
    let { Lower.expr; approx; _ } = Lower.lower_query ~catalog q in
    let tau = match at with Some n -> Time.of_int n | None -> Time.of_int now in
    let env name =
      Option.map (Relation.filter (fun _ texp -> Time.(texp > tau))) (env name)
    in
    let expr, env, joins_texp = split_equi_joins ~env ~tau expr in
    let res = Eval.run ~env ~tau expr in
    (match approx with
     | None -> Exact (rows_of_relation res.relation, Time.min res.texp joins_texp)
     | Some _ -> Estimate (Relation.cardinal res.relation))
  | _ -> die "gate line is not a query: %S" sql

let check_answer expected response =
  match expected, response with
  | Exact (rows, texp), Response (Wire.Rows r) ->
    if sorted_rows r.rows <> rows then Some "rows or per-tuple texp differ"
    else if not (Time.equal r.texp_e texp) then
      Some
        (Printf.sprintf "texp(e) %s, reference %s" (Time.to_string r.texp_e)
           (Time.to_string texp))
    else None
  | Estimate exact, Response (Wire.Rows { rows = [ ([ est; within ], _) ]; _ })
    ->
    (match Value.to_float est, Value.to_float within with
     | Some e, Some w when Float.abs (e -. float_of_int exact) <= w -> None
     | _ ->
       Some
         (Printf.sprintf "estimate %s +- %s, exact %d" (Value.to_string est)
            (Value.to_string within) exact))
  | _, r -> Some ("unexpected reply: " ^ outcome r)

let gate ~admin ~conn ~dump_clients ~replica_client =
  let now_value = show_now admin in
  Atomic.set clock now_value;
  let dumped = List.map (fun t -> (t, dump dump_clients t)) (String.split_on_char ',' !tables) in
  let catalog name = Option.map fst (List.assoc_opt name dumped) in
  let env = Eval.env_of_list (List.map (fun (t, (_, r)) -> (t, r)) dumped) in
  let checked = ref 0 in
  let failures = ref [] in
  let fail sql msg = failures := Printf.sprintf "%s: %s" sql msg :: !failures in
  List.iter
    (fun line ->
      let kind, rest = split_tab line in
      let sql, shown =
        match kind with
        | "view" ->
          let name, defining = split_tab rest in
          ignore (must conn ("REFRESH VIEW " ^ name));
          (defining, "SHOW VIEW " ^ name)
        | _ ->
          let sql = subst_now ~now_value rest in
          (sql, sql)
      in
      let expected = reference ~env ~catalog ~now:now_value sql in
      let answer = send conn shown in
      incr checked;
      (match check_answer expected answer with
       | Some msg -> fail shown msg
       | None -> ());
      match replica_client, kind with
      | Some rc, "query" ->
        incr checked;
        let from_replica =
          match Client.exec rc shown with
          | Ok r -> Response r
          | Error e -> Transport e
        in
        (match expected, from_replica, answer with
         | Exact _, Response (Wire.Rows a), Response (Wire.Rows b) ->
           if sorted_rows a.rows <> sorted_rows b.rows
              || not (Time.equal a.texp_e b.texp_e)
           then fail shown "replica answer differs from the primary's"
         | _ ->
           (match check_answer expected from_replica with
            | Some msg -> fail shown ("replica: " ^ msg)
            | None -> ()))
      | _ -> ())
    (read_lines "gate.txt");
  write_file "gate_result.txt"
    (kv [ ("checked", string_of_int !checked);
          ("failed", string_of_int (List.length !failures)) ]
     ^ String.concat "" (List.rev_map (fun f -> "mismatch " ^ f ^ "\n") !failures))

(* ---------- in-process replay ---------- *)

let to_wire = function
  | Ok (Interp.Msg m) -> Wire.Ok_msg m
  | Ok (Interp.Rows { columns; listing; texp_e; recomputed; _ }) ->
    Wire.Rows
      { columns;
        rows = List.map (fun (t, e) -> (Tuple.to_list t, e)) listing;
        texp_e;
        recomputed
      }
  | Error message -> Wire.Err { code = Wire.Exec_error; message }

let rec leaves (n : Profile.node) =
  match n.children with [] -> [ n ] | cs -> List.concat_map leaves cs

let timed acc f =
  let t0 = now () in
  let r = f () in
  acc := !acc +. (now () -. t0);
  r

let replay ~ops0 ~ops1 =
  let t = Interp.create () in
  let db = Interp.database t in
  List.iter
    (fun sql -> ignore (Interp.exec_sql t sql))
    (read_lines "schema.sql" @ read_lines "preload.sql" @ read_lines "post.sql");
  let catalog name = Option.map Table.columns (Database.table db name) in
  let take a = Array.to_list (Array.sub a 0 (min replay_ops (Array.length a))) in
  let rec interleave a b =
    match a, b with
    | [], r | r, [] -> r
    | x :: a, y :: b -> x :: y :: interleave a b
  in
  let stmts = interleave (take ops0) (take ops1) in
  let codec = ref 0. and parse = ref 0. and lower_plan = ref 0. in
  let at_t = ref 0. and now_t = ref 0. and snap = ref 0. and adv = ref 0. in
  let n_stmt = ref 0 and n_query = ref 0 and n_at = ref 0 in
  let n_write = ref 0 and n_tick = ref 0 in
  let examined = ref 0 and returned = ref 0 in
  List.iter
    (fun (op : op) ->
      let sql =
        subst_now ~now_value:(Option.get (Time.to_int_opt (Database.now db))) op.sql
      in
      incr n_stmt;
      timed codec (fun () ->
          ignore (Wire.decode_request (Wire.encode_request (Wire.Exec sql))));
      let stmt = timed parse (fun () -> Interp.parse t sql) in
      (match stmt with
       | Ast.Query { q; at = None; _ } ->
         let { Lower.expr; approx; _ } =
           timed lower_plan (fun () -> Lower.lower_query ~catalog q)
         in
         let compiled =
           timed lower_plan (fun () -> Planner.plan ~db ?approx expr)
         in
         incr n_query;
         let profile = Profile.of_plan ~db compiled.Expirel_exec.Plan.physical in
         let res = Executor.run ~profile ~db compiled in
         returned := !returned + Relation.cardinal res.relation;
         List.iter
           (fun (l : Profile.node) -> examined := !examined + l.rows + l.expired_dropped)
           (leaves profile)
       | _ -> ());
      let result =
        match stmt with
        | Ast.Query ({ at = Some _; _ } as qs) ->
          incr n_at;
          let r = timed at_t (fun () -> Interp.exec t stmt) in
          ignore (timed now_t (fun () -> Interp.exec t (Ast.Query { qs with at = None })));
          r
        | Ast.Tick _ ->
          incr n_tick;
          timed adv (fun () -> Interp.exec ~text:sql t stmt)
        | _ -> Interp.exec ~text:sql t stmt
      in
      (match stmt with
       | Ast.Insert { table; _ } | Ast.Delete (table, _) ->
         incr n_write;
         ignore (timed snap (fun () -> Database.snapshot db table))
       | _ -> ());
      timed codec (fun () ->
          ignore (Wire.decode_response (Wire.encode_response (to_wire result)))))
    stmts;
  let per acc n = if n = 0 then 0. else !acc *. 1e6 /. float_of_int n in
  write_file "replay.txt"
    (kv
       [ ("statements", string_of_int !n_stmt);
         ("codec_us_per_req", Printf.sprintf "%.4f" (per codec !n_stmt));
         ("parse_us_per_stmt", Printf.sprintf "%.4f" (per parse !n_stmt));
         ("lower_plan_us_per_query", Printf.sprintf "%.4f" (per lower_plan !n_query));
         ( "rows_examined_per_row_returned",
           Printf.sprintf "%.4f"
             (if !returned = 0 then 0.
              else float_of_int !examined /. float_of_int !returned) );
         ("at_query_us", Printf.sprintf "%.4f" (per at_t !n_at));
         ("now_query_us", Printf.sprintf "%.4f" (per now_t !n_at));
         ("snapshot_us_after_write", Printf.sprintf "%.4f" (per snap !n_write));
         ("advance_us_per_tick", Printf.sprintf "%.4f" (per adv !n_tick)) ])

(* ---------- main ---------- *)

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) "load.exe [options]";
  let t_setup = now () in
  let shard_ports = int_list !shards in
  let cluster = shard_ports <> [] in
  (* the admin connection and the clients the gate dumps from *)
  let node_clients =
    if cluster then List.mapi (fun i p -> (Printf.sprintf "shard%d" i, connect p)) shard_ports
    else
      ("primary", connect !primary)
      :: (if !replica > 0 then [ ("replica", connect !replica) ] else [])
  in
  let admin = snd (List.hd node_clients) in
  let coordinator =
    if cluster then
      Some (Coordinator.create ~shards:(List.map (fun port -> { Coordinator.host; port }) shard_ports) ())
    else None
  in
  let admin_conn =
    match coordinator with Some co -> Routed co | None -> Direct admin
  in
  List.iter (fun sql -> ignore (must admin_conn sql)) (read_lines "schema.sql");
  (* The cluster preload goes straight to each row's owner shard, as
     bulk loading would; the coordinator's partition summaries are
     refreshed by one heartbeat round afterwards. *)
  let preload sql =
    match coordinator, Parser.parse_statement sql with
    | Some co, Ast.Insert { values = key :: _; _ } ->
      let map = Coordinator.shard_map co in
      let owner = Wire.shard_owner map key in
      let shard = List.find (fun (s : Wire.shard) -> s.shard_id = owner) map.shards in
      let c = List.assoc shard.shard_port (List.combine shard_ports (List.map snd node_clients)) in
      ignore (must (Direct c) sql)
    | _ -> ignore (must admin_conn sql)
  in
  List.iter preload (read_lines "preload.sql");
  Option.iter Coordinator.heartbeat_now coordinator;
  List.iter (fun sql -> ignore (must admin_conn sql)) (read_lines "post.sql");
  Atomic.set clock (show_now admin);
  let ops0 = load_ops "ops0.txt" and ops1 = load_ops "ops1.txt" in
  let make ix ops paced think =
    let block = List.nth (int_list !block_sizes) ix in
    let conn =
      match coordinator with
      | Some co -> Routed co
      | None -> Direct (connect !primary)
    in
    { ix; conn; ops; cursor = 0; block; paced; think; spans = []; view_reads = 0;
      view_recomputed = 0; last_write = 0.; user_bytes = 0 }
  in
  let workers =
    make 0 ops0 !rate 0.
    :: (if Array.length ops1 > 0 then [ make 1 ops1 0. !think ] else [])
  in
  (match read_lines "subscribe.txt", (List.hd workers).conn with
   | [ line ], Direct c ->
     let name, query = split_tab line in
     (match Client.subscribe c ~name ~query with
      | Ok () -> ()
      | Error e -> die "SUBSCRIBE: %s" e)
   | [], _ -> ()
   | _ -> die "subscribe.txt: one subscription on a direct connection");
  run_all workers ~blocks:(Some !warmup) ~deadline:None;
  let replica_client = List.assoc_opt "replica" node_clients in
  Option.iter
    (fun rc -> ignore (wait_caught_up ~primary_client:admin ~replica_client:rc ~limit:60.))
    replica_client;
  write_file "setup.txt" (kv [ ("setup_s", Printf.sprintf "%.6f" (now () -. t_setup)) ]);
  if not !setup_only then begin
    let nodes = { clients = node_clients; coordinator } in
    let window label ~snapshot =
      List.iter reset workers;
      let wal0 = dir_bytes !data_dir in
      if snapshot then snapshot_counters nodes "before";
      (* replica lag sampled every 5 ms while the window runs *)
      let lag = ref [] in
      let t0 = now () in
      (* a traced run splits its time between the two windows *)
      let deadline = t0 +. (if !traced then !seconds /. 2. else !seconds) in
      let sampler =
        match replica_client with
        | Some _ when snapshot ->
          let c = connect !replica in
          Some
            (Thread.create
               (fun () ->
                 while now () < deadline do
                   (match repl_stats c with
                    | Some r -> lag := r.lag_records :: !lag
                    | None -> ());
                   Thread.delay 0.005
                 done;
                 Client.close c)
               ())
        | _ -> None
      in
      run_all workers ~blocks:None ~deadline:(Some deadline);
      let t1 = now () in
      Option.iter Thread.join sampler;
      let catchup =
        match replica_client with
        | Some rc ->
          let last_write = List.fold_left (fun a w -> Float.max a w.last_write) 0. workers in
          let caught = wait_caught_up ~primary_client:admin ~replica_client:rc ~limit:60. in
          [ ("repl_catchup_ms", Printf.sprintf "%.4f" ((caught -. last_write) *. 1e3)) ]
        | None -> []
      in
      if snapshot then snapshot_counters nodes "after";
      let wal = [ ("wal_bytes", string_of_int (dir_bytes !data_dir - wal0)) ] in
      if snapshot then
        write_file "lag_samples.txt"
          (String.concat "" (List.rev_map (Printf.sprintf "%d\n") !lag));
      (write_window ~label ~t0 ~t1 workers (catchup @ wal), t0)
    in
    ignore (window "untraced" ~snapshot:false);
    if !traced then begin
      let spans, t0 = window "traced" ~snapshot:true in
      write_spans spans ~t0;
      replay ~ops0 ~ops1
    end;
    gate ~admin ~conn:admin_conn
      ~dump_clients:(if cluster then List.map snd node_clients else [ admin ])
      ~replica_client
  end;
  List.iter
    (fun w -> match w.conn with Direct c -> Client.close c | Routed _ -> ())
    workers;
  Option.iter Coordinator.close coordinator;
  List.iter (fun (_, c) -> Client.close c) node_clients
